package orb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"integrade/internal/testutil/allocbudget"
)

// echoServant echoes its request body and exposes an operation that fails.
func echoServant() Servant {
	return NewOpMux().
		Handle("echo", func(_ string, req *Decoder) (*Encoder, error) {
			msg := req.String()
			if err := req.Err(); err != nil {
				return nil, Errorf(CodeMarshal, "decode echo: %v", err)
			}
			var e Encoder
			e.PutString(msg)
			return &e, nil
		}).
		Handle("fail", func(string, *Decoder) (*Encoder, error) {
			return nil, errors.New("deliberate failure")
		}).
		Handle("panic", func(string, *Decoder) (*Encoder, error) {
			panic("servant exploded")
		}).
		Handle("add", func(_ string, req *Decoder) (*Encoder, error) {
			a, b := req.I64(), req.I64()
			if err := req.Err(); err != nil {
				return nil, Errorf(CodeMarshal, "decode add: %v", err)
			}
			var e Encoder
			e.PutI64(a + b)
			return &e, nil
		})
}

func encodeString(s string) []byte {
	var e Encoder
	e.PutString(s)
	return e.Bytes()
}

func TestAdapterRegisterErrors(t *testing.T) {
	a := NewAdapter()
	if err := a.Register("", echoServant()); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := a.Register("x", nil); err == nil {
		t.Fatal("nil servant accepted")
	}
	if err := a.Register("x", echoServant()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := a.Register("x", echoServant()); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestLoopbackInvoke(t *testing.T) {
	o := New()
	a := NewAdapter()
	if err := a.Register("echo-obj", echoServant()); err != nil {
		t.Fatal(err)
	}
	ep, err := o.BindLoopback("node-1", a)
	if err != nil {
		t.Fatal(err)
	}
	ref := ObjectRef{Endpoint: ep, Key: "echo-obj"}

	reply, err := o.Invoke(ref, "echo", encodeString("ping"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got := NewDecoder(reply).String(); got != "ping" {
		t.Fatalf("echo = %q", got)
	}
}

func TestLoopbackErrorCodes(t *testing.T) {
	o := New()
	a := NewAdapter()
	if err := a.Register("obj", echoServant()); err != nil {
		t.Fatal(err)
	}
	ep, _ := o.BindLoopback("srv", a)

	tests := []struct {
		name string
		ref  ObjectRef
		op   string
		code ErrorCode
	}{
		{"no server", ObjectRef{Endpoint: Endpoint{Net: NetLoopback, Addr: "ghost"}, Key: "obj"}, "echo", CodeTransport},
		{"no object", ObjectRef{Endpoint: ep, Key: "ghost"}, "echo", CodeObjectNotExist},
		{"bad op", ObjectRef{Endpoint: ep, Key: "obj"}, "nosuch", CodeBadOperation},
		{"app error", ObjectRef{Endpoint: ep, Key: "obj"}, "fail", CodeApplication},
		{"panic", ObjectRef{Endpoint: ep, Key: "obj"}, "panic", CodeApplication},
		{"marshal", ObjectRef{Endpoint: ep, Key: "obj"}, "add", CodeMarshal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := o.Invoke(tt.ref, tt.op, nil)
			if !IsCode(err, tt.code) {
				t.Fatalf("err = %v, want code %s", err, tt.code)
			}
		})
	}
}

func TestLoopbackUnbind(t *testing.T) {
	o := New()
	a := NewAdapter()
	ep, _ := o.BindLoopback("srv", a)
	if _, err := o.BindLoopback("srv", a); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	if !o.Loopback().Unbind("srv") {
		t.Fatal("Unbind = false")
	}
	if o.Loopback().Unbind("srv") {
		t.Fatal("double Unbind = true")
	}
	_, err := o.Invoke(ObjectRef{Endpoint: ep, Key: "x"}, "op", nil)
	if !IsCode(err, CodeTransport) {
		t.Fatalf("invoke after unbind = %v", err)
	}
}

// TestLoopbackBindIsLinear: binding n endpoints costs O(n) memory, however
// many are bound already. (A copy-on-write registry copies every binding on
// every Bind: 8.4 M map entries for these 4 096.)
func TestLoopbackBindIsLinear(t *testing.T) {
	const n = 4096
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	a := NewAdapter()
	got := allocbudget.Bytes(func() {
		l := NewLoopback()
		for _, name := range names {
			if _, err := l.Bind(name, a); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got > n*512 {
		t.Fatalf("binding %d endpoints allocated %d KiB, %d B each", n, got>>10, got/n)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	o := New()
	defer o.Close()
	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server Close: %v", err)
		}
	}()

	ref := srv.Ref("calc")
	var e Encoder
	e.PutI64(20)
	e.PutI64(22)
	reply, err := o.Invoke(ref, "add", e.Bytes())
	if err != nil {
		t.Fatalf("Invoke over TCP: %v", err)
	}
	if got := NewDecoder(reply).I64(); got != 42 {
		t.Fatalf("add = %d", got)
	}

	// Error propagation over TCP preserves the code.
	if _, err := o.Invoke(srv.Ref("nope"), "echo", nil); !IsCode(err, CodeObjectNotExist) {
		t.Fatalf("missing object over TCP: %v", err)
	}
	if _, err := o.Invoke(ref, "fail", nil); !IsCode(err, CodeApplication) {
		t.Fatalf("app error over TCP: %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	o := New()
	defer o.Close()
	a := NewAdapter()
	if err := a.Register("calc", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const goroutines = 32
	const callsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				msg := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := o.Invoke(srv.Ref("calc"), "echo", encodeString(msg))
				if err != nil {
					errs <- err
					return
				}
				if got := NewDecoder(reply).String(); got != msg {
					errs <- fmt.Errorf("echo %q = %q", msg, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPServerCloseFailsInflight(t *testing.T) {
	o := newORBWithCallTimeout(5 * time.Second)
	defer o.Close()
	a := NewAdapter()
	block := make(chan struct{})
	mux := NewOpMux().Handle("block", func(string, *Decoder) (*Encoder, error) {
		<-block
		return &Encoder{}, nil
	})
	if err := a.Register("obj", mux); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := o.Invoke(srv.Ref("obj"), "block", nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the server
	close(block)                      // unblock the servant before closing
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
		// Either a successful reply (if it raced ahead of close) or a
		// transport error is acceptable; what matters is no hang.
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
}

func TestClientTimeout(t *testing.T) {
	o := newORBWithCallTimeout(100 * time.Millisecond)
	defer o.Close()
	a := NewAdapter()
	release := make(chan struct{})
	mux := NewOpMux().Handle("slow", func(string, *Decoder) (*Encoder, error) {
		<-release
		return &Encoder{}, nil
	})
	if err := a.Register("obj", mux); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the servant before closing: Close waits for in-flight
	// requests to finish.
	defer srv.Close()
	defer close(release)

	_, err = o.Invoke(srv.Ref("obj"), "slow", nil)
	if !IsCode(err, CodeTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	o := New()
	defer o.Close()
	a := NewAdapter()
	if err := a.Register("obj", echoServant()); err != nil {
		t.Fatal(err)
	}
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Endpoint().Addr
	ref := srv.Ref("obj")

	if _, err := o.Invoke(ref, "echo", encodeString("one")); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on the same address.
	srv2, err := o.ListenTCP(addr, a)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The pooled connection is stale; the client must transparently redial.
	if _, err := o.Invoke(ref, "echo", encodeString("two")); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestInvokeUnknownTransport(t *testing.T) {
	o := New()
	_, err := o.Invoke(ObjectRef{Endpoint: Endpoint{Net: "carrier-pigeon", Addr: "x"}, Key: "k"}, "op", nil)
	if !IsCode(err, CodeTransport) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRef(t *testing.T) {
	tests := []struct {
		in      string
		want    ObjectRef
		wantErr bool
	}{
		{
			in:   "tcp://10.0.0.1:9000/grm",
			want: ObjectRef{Endpoint: Endpoint{Net: NetTCP, Addr: "10.0.0.1:9000"}, Key: "grm"},
		},
		{
			in:   "inproc://cluster-0/lrm-3",
			want: ObjectRef{Endpoint: Endpoint{Net: NetLoopback, Addr: "cluster-0"}, Key: "lrm-3"},
		},
		{in: "garbage", wantErr: true},
		{in: "ftp://host/key", wantErr: true},
		{in: "tcp://hostonly", wantErr: true},
		{in: "tcp:///key", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseRef(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("ParseRef = %+v", got)
			}
			// Round-trip through String.
			back, err := ParseRef(got.String())
			if err != nil || back != got {
				t.Fatalf("round-trip = %+v, %v", back, err)
			}
		})
	}
}

func TestRemoteErrorFormatting(t *testing.T) {
	err := Errorf(CodeTimeout, "op %s", "x")
	if err.Error() == "" {
		t.Fatal("empty error")
	}
	if !IsCode(err, CodeTimeout) || IsCode(err, CodeMarshal) {
		t.Fatal("IsCode misbehaved")
	}
	if IsCode(errors.New("plain"), CodeTimeout) {
		t.Fatal("IsCode matched a plain error")
	}
	for c := CodeApplication; c <= CodeForward; c++ {
		if c.String() == "" {
			t.Fatalf("empty String for code %d", c)
		}
	}
	if ErrorCode(99).String() == "" {
		t.Fatal("unknown code String empty")
	}
}

// TestForwardRoundTrip: a servant's forward reaches the caller over TCP and
// over the loopback with its code and reference intact, and only a forward
// whose message is a reference names one.
func TestForwardRoundTrip(t *testing.T) {
	to := ObjectRef{Endpoint: Endpoint{Net: NetTCP, Addr: "127.0.0.1:7001"}, Key: "grm"}
	a := NewAdapter()
	if err := a.Register("obj", NewOpMux().
		Handle("forward", func(string, *Decoder) (*Encoder, error) {
			return nil, Errorf(CodeForward, "%s", to)
		}).
		Handle("garbled", func(string, *Decoder) (*Encoder, error) {
			return nil, Errorf(CodeForward, "elsewhere")
		})); err != nil {
		t.Fatal(err)
	}
	o := New()
	defer o.Close()
	srv, err := o.ListenTCP("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ep, err := o.BindLoopback("srv", a)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []ObjectRef{srv.Ref("obj"), {Endpoint: ep, Key: "obj"}} {
		_, err := o.Invoke(ref, "forward", nil)
		if got, ok := Forwarded(err); !ok || got != to || !IsCode(err, CodeForward) {
			t.Errorf("%s: forward = %v, %v (%v); want %v", ref.Endpoint.Net, got, ok, err, to)
		}
		_, err = o.Invoke(ref, "garbled", nil)
		if got, ok := Forwarded(err); ok {
			t.Errorf("%s: a forward naming no reference was followed to %v", ref.Endpoint.Net, got)
		}
	}
	for _, err := range []error{nil, errors.New("plain"), Errorf(CodeApplication, "%s", to)} {
		if got, ok := Forwarded(err); ok {
			t.Errorf("Forwarded(%v) = %v", err, got)
		}
	}
}

func TestOpMuxReplaceHandler(t *testing.T) {
	m := NewOpMux()
	m.Handle("op", func(string, *Decoder) (*Encoder, error) {
		var e Encoder
		e.PutI64(1)
		return &e, nil
	})
	m.Handle("op", func(string, *Decoder) (*Encoder, error) {
		var e Encoder
		e.PutI64(2)
		return &e, nil
	})
	enc, err := m.Dispatch("op", NewDecoder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := NewDecoder(enc.Bytes()).I64(); got != 2 {
		t.Fatalf("handler = %d, want replacement", got)
	}
}

func TestNilReplyBecomesEmptyBody(t *testing.T) {
	o := New()
	a := NewAdapter()
	mux := NewOpMux().Handle("void", func(string, *Decoder) (*Encoder, error) {
		return nil, nil
	})
	if err := a.Register("obj", mux); err != nil {
		t.Fatal(err)
	}
	ep, _ := o.BindLoopback("srv", a)
	reply, err := o.Invoke(ObjectRef{Endpoint: ep, Key: "obj"}, "void", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 0 {
		t.Fatalf("reply = %v, want empty", reply)
	}
}

// newORBWithCallTimeout returns an ORB whose TCP client runs every call
// under budget.
func newORBWithCallTimeout(budget time.Duration) *ORB {
	o := New()
	o.client = NewClient(WithCallTimeout(budget))
	return o
}
