// Package naming implements the ORB Naming service, the analogue of the
// CORBA Naming Service the paper leverages: a hierarchical mapping from
// path-like names ("clusters/ime/grm") to object references.
//
// Names are bound in process, by whoever hosts the Service. Remotely the
// servant answers one operation, resolve, which a typed Client wraps.
package naming

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"integrade/internal/orb"
)

// ObjectKey is the adapter key under which the naming servant registers.
const ObjectKey = "naming"

// Service errors.
var (
	// ErrNotFound indicates an unbound name.
	ErrNotFound = errors.New("naming: name not bound")
	// ErrAlreadyBound indicates Bind on an existing name.
	ErrAlreadyBound = errors.New("naming: name already bound")
	// ErrBadName indicates a syntactically invalid name.
	ErrBadName = errors.New("naming: invalid name")
)

// Service is the in-memory naming directory. It is safe for concurrent use;
// Servant/Client expose its Resolve remotely.
type Service struct {
	// mu guards bindings.
	mu       sync.RWMutex
	bindings map[string]orb.ObjectRef
}

// NewService returns an empty naming directory.
func NewService() *Service {
	return &Service{bindings: make(map[string]orb.ObjectRef)}
}

// ValidateName checks the "seg/seg/..." name syntax.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrBadName)
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" {
			return fmt.Errorf("%w: empty segment in %q", ErrBadName, name)
		}
	}
	return nil
}

// Bind associates name with ref; it fails if the name is taken.
func (s *Service) Bind(name string, ref orb.ObjectRef) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.bindings[name]; exists {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, name)
	}
	s.bindings[name] = ref
	return nil
}

// Rebind associates name with ref, replacing any existing binding.
func (s *Service) Rebind(name string, ref orb.ObjectRef) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindings[name] = ref
	return nil
}

// Resolve returns the reference bound to name.
func (s *Service) Resolve(name string) (orb.ObjectRef, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ref, ok := s.bindings[name]
	if !ok {
		return orb.ObjectRef{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ref, nil
}

// resolve is the one wire operation: a name in, its reference out.
var resolve = &orb.Op[string, orb.ObjectRef]{Name: "resolve",
	EncodeReq: func(name string, e *orb.Encoder) { e.PutString(name) },
	DecodeReq: func(d *orb.Decoder) (string, error) {
		name := d.String()
		return name, d.Err()
	},
	EncodeRep: func(ref orb.ObjectRef, e *orb.Encoder) {
		e.PutString(ref.Endpoint.Net)
		e.PutString(ref.Endpoint.Addr)
		e.PutString(ref.Key)
	},
	DecodeRep: func(d *orb.Decoder) (orb.ObjectRef, error) {
		ref := orb.ObjectRef{
			Endpoint: orb.Endpoint{Net: d.String(), Addr: d.String()},
			Key:      d.String(),
		}
		return ref, d.Err()
	},
}

// Servant exposes the service's Resolve as an ORB servant.
func Servant(s *Service) orb.Servant {
	m := orb.NewOpMux()
	orb.Serve(m, resolve, s.Resolve)
	return m
}

// Client is a typed stub for a remote naming service.
type Client struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewClient returns a stub invoking the naming service at ref via inv.
func NewClient(inv orb.Invoker, ref orb.ObjectRef) *Client {
	return &Client{inv: inv, ref: ref}
}

// Resolve resolves name remotely.
func (c *Client) Resolve(name string) (orb.ObjectRef, error) {
	return resolve.Invoke(c.inv, c.ref, name)
}
