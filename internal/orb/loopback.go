package orb

import (
	"sync"
	"sync/atomic"
)

// Loopback is the in-process transport. Each "server" is an Adapter bound to
// a registry name; invocations are direct function calls, which makes
// thousand-node simulations deterministic and fast.
//
// An Interceptor may be installed to inject message loss, delay and
// duplication for failure-injection tests, emulating an unreliable network;
// internal/chaos provides the standard engine.
//
// A name is bound once and read on every invocation, the access pattern
// sync.Map is built for: Invoke takes no lock and allocates nothing once the
// name is warm, and Bind costs amortized O(1) however many names exist.
type Loopback struct {
	adapters    sync.Map // name → *Adapter
	interceptor atomic.Pointer[Interceptor]
}

var _ Invoker = (*Loopback)(nil)

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback { return &Loopback{} }

// SetInterceptor installs (or clears, with nil) the fault-injection hook.
func (l *Loopback) SetInterceptor(ic Interceptor) {
	if ic == nil {
		l.interceptor.Store(nil)
		return
	}
	l.interceptor.Store(&ic)
}

// Bind registers adapter under name and returns its endpoint.
func (l *Loopback) Bind(name string, adapter *Adapter) (Endpoint, error) {
	if _, exists := l.adapters.LoadOrStore(name, adapter); exists {
		return Endpoint{}, Errorf(CodeTransport, "loopback name %q already bound", name)
	}
	return Endpoint{Net: NetLoopback, Addr: name}, nil
}

// Unbind removes the named adapter. It reports whether it existed.
func (l *Loopback) Unbind(name string) bool {
	_, existed := l.adapters.LoadAndDelete(name)
	return existed
}

// adapter returns the adapter bound to name.
func (l *Loopback) adapter(name string) (*Adapter, error) {
	a, ok := l.adapters.Load(name)
	if !ok {
		return nil, Errorf(CodeTransport, "no loopback server %q", name)
	}
	return a.(*Adapter), nil
}

// Invoke implements Invoker for inproc references.
//
//lint:hotpath alloc=0 locks=0 block=0
func (l *Loopback) Invoke(ref ObjectRef, op string, arg []byte) ([]byte, error) {
	if ref.Endpoint.Net != NetLoopback {
		return nil, Errorf(CodeTransport, "loopback cannot reach %s endpoint", ref.Endpoint.Net)
	}
	ic := l.interceptor.Load()
	if ic == nil {
		// Fast path: the servant ownership contract (DESIGN.md §13 — the
		// request buffer is read-only and must not be retained past
		// Dispatch) makes the defensive copy a real transport's
		// serialization implies unnecessary, so dispatch straight into the
		// adapter with the caller's buffer.
		adapter, err := l.adapter(ref.Endpoint.Addr)
		if err != nil {
			return nil, err
		}
		return adapter.dispatch(ref.Key, op, arg)
	}
	// next performs one delivery; the interceptor may call it zero, one or
	// several times (drop / deliver / duplicate), possibly asynchronously —
	// including after Invoke has returned and the caller reuses arg — so the
	// interceptor and every delivery read one copy, taken now. Servants only
	// read a request, so the deliveries can share it.
	arg = append([]byte(nil), arg...) //lint:alloc interceptor path copies the caller's buffer once
	next := func() ([]byte, error) {  //lint:alloc interceptor path builds one closure per call
		adapter, err := l.adapter(ref.Endpoint.Addr)
		if err != nil {
			return nil, err
		}
		return adapter.dispatch(ref.Key, op, arg)
	}
	return (*ic).Intercept(ref.Endpoint, ref.Key, op, arg, next)
}
