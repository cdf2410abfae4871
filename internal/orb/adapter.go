package orb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Servant handles invocations on one object. Implementations decode the
// request body from req, perform the operation and write the reply with the
// returned encoder. Returning an error produces an error reply; returning a
// *RemoteError preserves its code, any other error is wrapped as
// CodeApplication.
//
// Ownership contract (DESIGN.md §13): req and its buffer belong to the ORB —
// a servant must treat them as read-only and must not retain them (or any
// RawBytes/RawString slice) past the Dispatch call. The returned Encoder
// transfers to the ORB on return, which recycles it with PutEncoder: build it
// per call (GetEncoder for a pooled one) and do not touch it afterwards.
// These rules are what let the transports skip defensive copies and recycle
// buffers on the hot path.
type Servant interface {
	Dispatch(op string, req *Decoder) (*Encoder, error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, req *Decoder) (*Encoder, error)

// Dispatch implements Servant.
func (f ServantFunc) Dispatch(op string, req *Decoder) (*Encoder, error) {
	return f(op, req)
}

// OpMux is a Servant that routes operations by name, the common way to
// implement multi-operation interfaces. The operation table is copy-on-write:
// Dispatch reads one atomic snapshot, Handle copies and swaps under mu —
// registration happens at setup, dispatch on the hot path.
type OpMux struct {
	// mu serializes writers of ops.
	//lint:guards ops
	mu  sync.Mutex
	ops atomic.Pointer[map[string]ServantFunc]
}

// NewOpMux returns an empty operation multiplexer.
func NewOpMux() *OpMux {
	m := &OpMux{}
	ops := make(map[string]ServantFunc)
	m.ops.Store(&ops)
	return m
}

// Handle registers fn for the named operation, replacing any previous
// handler.
func (m *OpMux) Handle(op string, fn ServantFunc) *OpMux {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.ops.Load()
	next := make(map[string]ServantFunc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[op] = fn
	m.ops.Store(&next)
	return m
}

// Dispatch implements Servant.
//
//lint:hotpath alloc=0 locks=0 block=0
func (m *OpMux) Dispatch(op string, req *Decoder) (*Encoder, error) {
	fn, ok := (*m.ops.Load())[op]
	if !ok {
		return nil, Errorf(CodeBadOperation, "no such operation %q", op)
	}
	return fn(op, req)
}

// Adapter is the object adapter: it owns the key → servant table of one ORB
// server. It is safe for concurrent use. Like OpMux, the table is
// copy-on-write so dispatch pays one atomic load instead of a lock.
type Adapter struct {
	// mu serializes writers of servants.
	//lint:guards servants
	mu       sync.Mutex
	servants atomic.Pointer[map[string]Servant]
}

// NewAdapter returns an empty Adapter.
func NewAdapter() *Adapter {
	a := &Adapter{}
	servants := make(map[string]Servant)
	a.servants.Store(&servants)
	return a
}

// Register binds a servant to an object key. Registering an existing key
// returns an error.
func (a *Adapter) Register(key string, s Servant) error {
	if key == "" {
		return fmt.Errorf("orb: empty object key")
	}
	if s == nil {
		return fmt.Errorf("orb: nil servant for key %q", key)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.servants.Load()
	if _, exists := old[key]; exists {
		return fmt.Errorf("orb: object key %q already registered", key)
	}
	next := make(map[string]Servant, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = s
	a.servants.Store(&next)
	return nil
}

// deactivate removes the servant bound to key, if any. It reports whether a
// servant was removed.
func (a *Adapter) deactivate(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.servants.Load()
	if _, ok := old[key]; !ok {
		return false
	}
	next := make(map[string]Servant, len(old))
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	a.servants.Store(&next)
	return true
}

// sortedKeys returns the registered object keys in sorted order.
func (a *Adapter) sortedKeys() []string {
	servants := *a.servants.Load()
	keys := make([]string, 0, len(servants))
	for k := range servants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dispatch routes one request to its servant and returns the reply bytes,
// copied out of the servant's encoder, which goes back to the pool with its
// buffer: the caller owns the copy, and the next reply is built without
// growing a buffer.
func (a *Adapter) dispatch(key, op string, body []byte) ([]byte, error) {
	enc, err := a.dispatchEnc(key, op, body)
	if err != nil || enc == nil {
		return nil, err
	}
	reply := append([]byte(nil), enc.Bytes()...) //lint:alloc the caller's copy of the reply
	PutEncoder(enc)
	return reply, nil
}

// dispatchEnc routes one request to its servant and normalizes errors into
// RemoteErrors. It recovers servant panics so a buggy servant cannot take
// down the server. The returned encoder is owned by the caller, who recycles
// it once the reply bytes are written or copied — this is what lets the TCP
// server serve a request with zero reply-buffer allocations.
func (a *Adapter) dispatchEnc(key, op string, body []byte) (enc *Encoder, err error) {
	s, ok := (*a.servants.Load())[key]
	if !ok {
		return nil, Errorf(CodeObjectNotExist, "no object %q", key)
	}
	defer func() { //lint:alloc panic guard; open-coded defer keeps it off the heap
		if r := recover(); r != nil {
			enc = nil
			err = Errorf(CodeApplication, "servant panic in %s.%s: %v", key, op, r)
		}
	}()
	req := getDecoder(body)
	enc, err = s.Dispatch(op, req)
	putDecoder(req)
	if err != nil {
		PutEncoder(enc) // ownership transferred even on error; recycle
		if re, ok := err.(*RemoteError); ok {
			return nil, re
		}
		return nil, &RemoteError{Code: CodeApplication, Msg: err.Error()} //lint:alloc error slow path
	}
	return enc, nil
}
