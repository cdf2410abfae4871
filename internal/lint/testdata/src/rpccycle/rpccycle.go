// Fixture for the rpccycle analyzer: a two-component synchronous Invoke
// cycle that no single-function check can see, plus a plain request/reply
// pair that must stay silent and a TTL-bounded recursion carrying the
// //lint:allow escape hatch.
package rpccycle

import "integrade/internal/orb"

// The wire operations, each declared once: no body either way.
var (
	ping  = &orb.Op[struct{}, struct{}]{Name: "cycle.ping"}
	pong  = &orb.Op[struct{}, struct{}]{Name: "cycle.pong"}
	leaf  = &orb.Op[struct{}, struct{}]{Name: "cycle.leaf"}
	relay = &orb.Op[struct{}, struct{}]{Name: "cycle.relay"}
)

// Master is one half of a mutually re-entrant component pair: its servant
// handles pong by calling the worker, whose servant handles ping by calling
// back here.
type Master struct {
	inv orb.Invoker
	ref orb.ObjectRef // the worker's reference
}

// CallWorker issues the master -> worker half of the cycle.
func (m *Master) CallWorker() error {
	_, err := ping.Invoke(m.inv, m.ref, struct{}{}) // want `synchronous RPC "cycle\.ping" can re-enter its own caller`
	return err
}

// Servant handles pong by synchronously calling the worker again.
func (m *Master) Servant() orb.Servant {
	mux := orb.NewOpMux()
	orb.Serve(mux, pong, func(struct{}) (struct{}, error) {
		return struct{}{}, m.CallWorker()
	})
	return mux
}

// Status is a plain request/reply to a handler that never calls back: no
// cycle, no finding.
func (m *Master) Status() error {
	_, err := leaf.Invoke(m.inv, m.ref, struct{}{})
	return err
}

// Worker is the other half of the pair.
type Worker struct {
	inv orb.Invoker
	ref orb.ObjectRef // the master's reference
}

// CallMaster issues the worker -> master half of the cycle.
func (w *Worker) CallMaster() error {
	_, err := pong.Invoke(w.inv, w.ref, struct{}{}) // want `synchronous RPC "cycle\.pong" can re-enter its own caller`
	return err
}

// Servant handles ping by synchronously calling the master back, through a
// method value rather than a literal.
func (w *Worker) Servant() orb.Servant {
	mux := orb.NewOpMux()
	orb.Serve(mux, ping, w.handlePing)
	return mux
}

func (w *Worker) handlePing(struct{}) (struct{}, error) {
	return struct{}{}, w.CallMaster()
}

// LeafServant answers leaf without issuing any RPC.
func LeafServant() orb.Servant {
	mux := orb.NewOpMux()
	orb.Serve(mux, leaf, func(struct{}) (struct{}, error) {
		return struct{}{}, nil
	})
	return mux
}

// Relay forwards a request to the next hop of a chain whose servant handles
// the same operation — a real cycle in the call graph, deliberately bounded
// by the ttl argument, so it carries the justifying allow directive.
type Relay struct {
	inv  orb.Invoker
	next orb.ObjectRef
}

// Forward passes the request along unless the hop budget is spent.
func (r *Relay) Forward(ttl int) error {
	if ttl <= 0 {
		return nil
	}
	//lint:allow rpccycle recursion is hop-bounded by the ttl argument
	_, err := relay.Invoke(r.inv, r.next, struct{}{})
	return err
}

// Servant handles relay by forwarding with a decremented budget; it decodes
// the (empty) request itself.
func (r *Relay) Servant(ttl int) orb.Servant {
	mux := orb.NewOpMux()
	orb.ServeRaw(mux, relay, func(*orb.Decoder) (struct{}, error) {
		return struct{}{}, r.Forward(ttl - 1)
	})
	return mux
}
