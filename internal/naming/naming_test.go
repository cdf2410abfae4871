package naming

import (
	"errors"
	"strings"
	"testing"

	"integrade/internal/orb"
)

func ref(addr, key string) orb.ObjectRef {
	return orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: addr},
		Key:      key,
	}
}

func TestServiceBindResolve(t *testing.T) {
	s := NewService()
	r := ref("srv", "grm")
	if err := s.Bind("clusters/ime/grm", r); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resolve("clusters/ime/grm")
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("Resolve = %v", got)
	}
	if err := s.Bind("clusters/ime/grm", r); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("duplicate Bind err = %v", err)
	}
	other := ref("srv2", "grm")
	if err := s.Rebind("clusters/ime/grm", other); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Resolve("clusters/ime/grm")
	if got != other {
		t.Fatalf("after Rebind = %v", got)
	}
}

func TestServiceResolveUnknown(t *testing.T) {
	s := NewService()
	if _, err := s.Resolve("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestServiceBadNames(t *testing.T) {
	s := NewService()
	for _, name := range []string{"", "/", "a//b", "a/", "/a"} {
		if err := s.Bind(name, ref("x", "y")); !errors.Is(err, ErrBadName) {
			t.Fatalf("Bind(%q) err = %v, want ErrBadName", name, err)
		}
		if err := s.Rebind(name, ref("x", "y")); !errors.Is(err, ErrBadName) {
			t.Fatalf("Rebind(%q) err = %v, want ErrBadName", name, err)
		}
	}
}

func TestServiceNamesAreWholePaths(t *testing.T) {
	s := NewService()
	names := []string{
		"clusters/ime/grm",
		"clusters/ime/hierarchy",
		"clusters/poli/grm",
		"root",
	}
	for _, n := range names {
		if err := s.Bind(n, ref("x", n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		got, err := s.Resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != n {
			t.Fatalf("Resolve(%q) = %v", n, got)
		}
	}
	// A prefix of a bound name is not itself bound.
	for _, n := range []string{"clusters", "clusters/ime", "clusters/im"} {
		if _, err := s.Resolve(n); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Resolve(%q) err = %v, want ErrNotFound", n, err)
		}
	}
}

func TestClientAgainstServantLoopback(t *testing.T) {
	o := orb.New()
	svc := NewService()
	adapter := orb.NewAdapter()
	if err := adapter.Register(ObjectKey, Servant(svc)); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("manager", adapter)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(o, orb.ObjectRef{Endpoint: ep, Key: ObjectKey})

	target := ref("node-7", "lrm")
	if err := svc.Bind("lrms/node-7", target); err != nil {
		t.Fatal(err)
	}
	got, err := client.Resolve("lrms/node-7")
	if err != nil {
		t.Fatal(err)
	}
	if got != target {
		t.Fatalf("Resolve = %v", got)
	}
	moved := ref("node-7b", "lrm")
	if err := svc.Rebind("lrms/node-7", moved); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Resolve("lrms/node-7"); err != nil || got != moved {
		t.Fatalf("Resolve after Rebind = %v, %v", got, err)
	}
	_, err = client.Resolve("lrms/ghost")
	if !orb.IsCode(err, orb.CodeApplication) || !strings.Contains(err.Error(), ErrNotFound.Error()) {
		t.Fatalf("Resolve of an unbound name: err = %v, want the servant's not-bound error", err)
	}
}

func TestClientAgainstServantTCP(t *testing.T) {
	o := orb.New()
	defer o.Close()
	svc := NewService()
	adapter := orb.NewAdapter()
	if err := adapter.Register(ObjectKey, Servant(svc)); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", adapter)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewClient(o, srv.Ref(ObjectKey))
	target := orb.ObjectRef{Endpoint: srv.Endpoint(), Key: "self"}
	if err := svc.Bind("services/self", target); err != nil {
		t.Fatal(err)
	}
	got, err := client.Resolve("services/self")
	if err != nil {
		t.Fatal(err)
	}
	if got != target {
		t.Fatalf("Resolve over TCP = %v", got)
	}
	_, err = client.Resolve("services/ghost")
	if !orb.IsCode(err, orb.CodeApplication) || !strings.Contains(err.Error(), ErrNotFound.Error()) {
		t.Fatalf("Resolve of an unbound name over TCP: err = %v, want the servant's not-bound error", err)
	}
}

func TestValidateName(t *testing.T) {
	if err := ValidateName("a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateName(""); err == nil {
		t.Fatal("empty name accepted")
	}
}
