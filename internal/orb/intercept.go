package orb

// Interceptor is the single fault-injection and observation hook shared by
// every ORB transport. Both the in-process Loopback and the TCP Client
// consult the installed interceptor once per call, so a fault engine
// (internal/chaos) injects message drop, delay and duplication through one
// code path regardless of how a reference is reached.
//
// next performs the actual delivery (adapter dispatch for loopback, a
// framed request/reply exchange for TCP) and may be called zero times (drop),
// once (normal delivery), or more than once / asynchronously (duplication,
// delayed redelivery). arg is the transport's copy of the request, not the
// caller's buffer, so it and every call of next stay valid after Invoke has
// returned. Implementations must be safe for concurrent use and must not
// hold locks across the next call.
type Interceptor interface {
	Intercept(target Endpoint, key, op string, arg []byte, next func() ([]byte, error)) ([]byte, error)
}
