package orb

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"integrade/internal/testutil/allocbudget"
)

// passThrough is an Interceptor that delivers every message exactly once,
// exercising the intercepted (copying) invoke path with no fault behavior.
type passThrough struct{}

func (passThrough) Intercept(_ Endpoint, _, _ string, _ []byte, next func() ([]byte, error)) ([]byte, error) {
	return next()
}

// TestLoopbackInvokeAllocBudget is the CI allocation gate for the invoke
// paths: testdata/alloc_budget.txt holds one checked-in budget row per
// measured path (allocs per Invoke for a 256 B echo — the loopback fast
// path's single allocation is the caller's copy of the reply, the intercepted
// path adds its one copy of the request and the interceptor's closure, and the
// TCP row counts both ends of the connection; see DESIGN.md §13). Any hot-path
// regression that reintroduces a per-call allocation fails this test with a
// full got-vs-budget row diff, and lowering a row is how a future optimization
// ratchets the gate down.
func TestLoopbackInvokeAllocBudget(t *testing.T) {
	path := filepath.Join("testdata", "alloc_budget.txt")
	rows := allocbudget.Parse(t, path)

	newAdapter := func() *Adapter {
		adapter := NewAdapter()
		mux := NewOpMux().Handle("echo", func(_ string, req *Decoder) (*Encoder, error) {
			data := req.RawBytes()
			if err := req.Err(); err != nil {
				return nil, err
			}
			e := GetEncoder()
			e.Grow(4 + len(data))
			e.PutBytes(data)
			return e, nil
		})
		if err := adapter.Register("echo", mux); err != nil {
			t.Fatal(err)
		}
		return adapter
	}
	newRef := func(o *ORB, name string, ic Interceptor) ObjectRef {
		ep, err := o.BindLoopback(name, newAdapter())
		if err != nil {
			t.Fatal(err)
		}
		if ic != nil {
			o.SetInterceptor(ic)
		}
		return ObjectRef{Endpoint: ep, Key: "echo"}
	}
	var e Encoder
	e.PutBytes(make([]byte, 256))
	arg := e.Bytes()

	measure := map[string]func() float64{
		"loopback-invoke": func() float64 {
			o := New()
			ref := newRef(o, "gate", nil)
			return testing.AllocsPerRun(500, func() {
				if _, err := o.Invoke(ref, "echo", arg); err != nil {
					t.Fatal(err)
				}
			})
		},
		"loopback-invoke-intercepted": func() float64 {
			o := New()
			ref := newRef(o, "gate-ic", passThrough{})
			return testing.AllocsPerRun(500, func() {
				if _, err := o.Invoke(ref, "echo", arg); err != nil {
					t.Fatal(err)
				}
			})
		},
		"tcp-invoke": func() float64 {
			o := New()
			defer o.Close()
			srv, err := o.ListenTCP("127.0.0.1:0", newAdapter())
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ref := srv.Ref("echo")
			return testing.AllocsPerRun(500, func() {
				if _, err := o.Invoke(ref, "echo", arg); err != nil {
					t.Fatal(err)
				}
			})
		},
	}

	var (
		diff   strings.Builder
		failed bool
	)
	for _, row := range rows {
		m, ok := measure[row.Name]
		if !ok {
			t.Fatalf("%s: unknown row %q (known: loopback-invoke, loopback-invoke-intercepted, tcp-invoke)", path, row.Name)
		}
		if allocbudget.Race && row.Name == "tcp-invoke" {
			fmt.Fprintf(&diff, "  %-28s skipped under the race detector\n", row.Name)
			continue
		}
		got := m()
		mark := "ok"
		if got > row.Budget {
			mark = "OVER BUDGET"
			failed = true
		}
		fmt.Fprintf(&diff, "  %-28s got %5.2f allocs/op, budget %4.0f  %s\n", row.Name, got, row.Budget, mark)
	}
	if failed {
		t.Fatalf("allocation budget exceeded (%s):\n%s", path, diff.String())
	}
	t.Logf("allocation budgets hold (%s):\n%s", path, diff.String())
}
