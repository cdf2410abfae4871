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

// opResolve is the one wire operation.
const opResolve = "resolve"

// Servant exposes the service's Resolve as an ORB servant.
func Servant(s *Service) orb.Servant {
	return orb.NewOpMux().
		Handle(opResolve, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			name := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "resolve: %v", err)
			}
			ref, err := s.Resolve(name)
			if err != nil {
				return nil, orb.Errorf(orb.CodeApplication, "%s", err.Error())
			}
			var e orb.Encoder
			e.PutString(ref.Endpoint.Net)
			e.PutString(ref.Endpoint.Addr)
			e.PutString(ref.Key)
			return &e, nil
		})
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
	var e orb.Encoder
	e.PutString(name)
	reply, err := c.inv.Invoke(c.ref, opResolve, e.Bytes())
	if err != nil {
		return orb.ObjectRef{}, err
	}
	d := orb.NewDecoder(reply)
	ref := orb.ObjectRef{
		Endpoint: orb.Endpoint{Net: d.String(), Addr: d.String()},
		Key:      d.String(),
	}
	if err := d.Err(); err != nil {
		return orb.ObjectRef{}, orb.Errorf(orb.CodeMarshal, "resolve reply: %v", err)
	}
	return ref, nil
}
