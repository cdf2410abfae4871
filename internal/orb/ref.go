package orb

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Network names for endpoint transports.
const (
	// NetTCP addresses a remote ORB server over TCP.
	NetTCP = "tcp"
	// NetLoopback addresses an in-process ORB registered on a Loopback.
	NetLoopback = "inproc"
)

// Endpoint locates an ORB server.
type Endpoint struct {
	Net  string // NetTCP or NetLoopback
	Addr string // host:port for tcp, registry name for inproc
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return e.Net + "://" + e.Addr }

// ObjectRef names a remote object: where it lives and its key within the
// server's object adapter. It is the analogue of a CORBA IOR.
type ObjectRef struct {
	Endpoint Endpoint
	Key      string
}

// String renders the reference in endpoint/key form.
func (r ObjectRef) String() string { return r.Endpoint.String() + "/" + r.Key }

// IsZero reports whether the reference is unset.
func (r ObjectRef) IsZero() bool { return r == ObjectRef{} }

// ParseRef parses the form produced by ObjectRef.String
// ("tcp://host:port/key" or "inproc://name/key").
func ParseRef(s string) (ObjectRef, error) {
	scheme, rest, ok := strings.Cut(s, "://")
	if !ok {
		return ObjectRef{}, fmt.Errorf("orb: malformed reference %q", s)
	}
	if scheme != NetTCP && scheme != NetLoopback {
		return ObjectRef{}, fmt.Errorf("orb: unknown transport %q in reference %q", scheme, s)
	}
	addr, key, ok := strings.Cut(rest, "/")
	if !ok || addr == "" || key == "" {
		return ObjectRef{}, fmt.Errorf("orb: malformed reference %q", s)
	}
	return ObjectRef{Endpoint: Endpoint{Net: scheme, Addr: addr}, Key: key}, nil
}

// ErrorCode classifies remote invocation failures, mirroring the CORBA
// system-exception taxonomy that matters to InteGrade's protocols.
type ErrorCode int

// Remote error codes.
const (
	// CodeApplication is an error raised by the servant itself.
	CodeApplication ErrorCode = iota + 1
	// CodeObjectNotExist means the object key is not registered.
	CodeObjectNotExist
	// CodeBadOperation means the servant does not implement the operation.
	CodeBadOperation
	// CodeMarshal means a request or reply body failed to decode.
	CodeMarshal
	// CodeTransport means the request could not be delivered or the
	// connection failed before a reply arrived.
	CodeTransport
	// CodeTimeout means the invocation deadline elapsed.
	CodeTimeout
	// CodeForward means the caller must send the request to the object whose
	// reference (ObjectRef.String) is the message: CORBA's LOCATION_FORWARD.
	CodeForward
)

// String implements fmt.Stringer.
func (c ErrorCode) String() string {
	switch c {
	case CodeApplication:
		return "APPLICATION"
	case CodeObjectNotExist:
		return "OBJECT_NOT_EXIST"
	case CodeBadOperation:
		return "BAD_OPERATION"
	case CodeMarshal:
		return "MARSHAL"
	case CodeTransport:
		return "TRANSPORT"
	case CodeTimeout:
		return "TIMEOUT"
	case CodeForward:
		return "FORWARD"
	default:
		return fmt.Sprintf("ErrorCode(%d)", int(c))
	}
}

// RemoteError is the error type surfaced by Invoke failures.
type RemoteError struct {
	Code ErrorCode
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("orb: %s: %s", e.Code, e.Msg)
}

// Is lets errors.Is treat timeout-class invocation failures as the standard
// context.DeadlineExceeded, so callers can handle ORB deadlines with the
// same code path they use for context-bounded local work.
func (e *RemoteError) Is(target error) bool {
	return target == context.DeadlineExceeded && e.Code == CodeTimeout
}

// Errorf builds a RemoteError.
//
//lint:coldpath error construction is off the steady-state path
func Errorf(code ErrorCode, format string, args ...any) *RemoteError {
	return &RemoteError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Forwarded returns the reference a CodeForward error sends its caller to.
func Forwarded(err error) (ObjectRef, bool) {
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeForward {
		return ObjectRef{}, false
	}
	ref, perr := ParseRef(re.Msg)
	return ref, perr == nil
}

// IsCode reports whether err is a RemoteError carrying the given code.
func IsCode(err error, code ErrorCode) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}
