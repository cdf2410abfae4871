// Fixture for the rpccycle analyzer: three two-component synchronous Invoke
// cycles that no single-function check can see, one of them closed through a
// servant that encodes its own reply and one through handlers registered by a
// wrapper of orb.Serve, plus a plain request/reply pair that must stay silent
// and a TTL-bounded recursion carrying the //lint:allow escape hatch.
package rpccycle

import "integrade/internal/orb"

// The wire operations, each declared once: no body either way.
var (
	ping  = &orb.Op[struct{}, struct{}]{Name: "cycle.ping"}
	pong  = &orb.Op[struct{}, struct{}]{Name: "cycle.pong"}
	leaf  = &orb.Op[struct{}, struct{}]{Name: "cycle.leaf"}
	relay = &orb.Op[struct{}, struct{}]{Name: "cycle.relay"}
	ask   = &orb.Op[struct{}, struct{}]{Name: "cycle.ask"}
	tell  = &orb.Op[struct{}, struct{}]{Name: "cycle.tell"}
	hop   = &orb.Op[struct{}, struct{}]{Name: "cycle.hop"}
	back  = &orb.Op[struct{}, struct{}]{Name: "cycle.back"}
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

// Asker calls the teller, whose servant encodes its own reply and calls back
// here on the way.
type Asker struct {
	inv orb.Invoker
	ref orb.ObjectRef // the teller's reference
}

// Ask issues the asker -> teller half of the cycle.
func (a *Asker) Ask() error {
	_, err := ask.Invoke(a.inv, a.ref, struct{}{}) // want `synchronous RPC "cycle\.ask" can re-enter its own caller`
	return err
}

// Servant handles tell by asking the teller again.
func (a *Asker) Servant() orb.Servant {
	mux := orb.NewOpMux()
	orb.Serve(mux, tell, func(struct{}) (struct{}, error) {
		return struct{}{}, a.Ask()
	})
	return mux
}

// Teller is the other half: its handler writes the reply itself.
type Teller struct {
	inv orb.Invoker
	ref orb.ObjectRef // the asker's reference
}

// Servant handles ask by telling the asker before it encodes the reply.
func (t *Teller) Servant() orb.Servant {
	mux := orb.NewOpMux()
	orb.ServeEncode(mux, ask, func(_ *orb.Decoder, _ *orb.Encoder) error {
		_, err := tell.Invoke(t.inv, t.ref, struct{}{}) // want `synchronous RPC "cycle\.tell" can re-enter its own caller`
		return err
	})
	return mux
}

// serveWrite is a repo-local wrapper of orb.Serve that passes its handler
// straight on: a literal handed to it is registered for op as if handed to
// orb.Serve itself.
func serveWrite[Req, Rep any](mux *orb.OpMux, op *orb.Op[Req, Rep], fn func(Req) (Rep, error)) {
	orb.Serve(mux, op, fn)
}

// Hopper calls the bouncer, whose handler, registered through serveWrite,
// calls back here through a handler registered the same way.
type Hopper struct {
	inv orb.Invoker
	ref orb.ObjectRef // the bouncer's reference
}

// Hop issues the hopper -> bouncer half of the cycle.
func (h *Hopper) Hop() error {
	_, err := hop.Invoke(h.inv, h.ref, struct{}{}) // want `synchronous RPC "cycle\.hop" can re-enter its own caller`
	return err
}

// Servant handles back by hopping again.
func (h *Hopper) Servant() orb.Servant {
	mux := orb.NewOpMux()
	serveWrite[struct{}, struct{}](mux, back, func(struct{}) (struct{}, error) {
		return struct{}{}, h.Hop()
	})
	return mux
}

// Bouncer is the other half.
type Bouncer struct {
	inv orb.Invoker
	ref orb.ObjectRef // the hopper's reference
}

// Servant handles hop by calling the hopper back.
func (b *Bouncer) Servant() orb.Servant {
	mux := orb.NewOpMux()
	serveWrite(mux, hop, func(struct{}) (struct{}, error) {
		_, err := back.Invoke(b.inv, b.ref, struct{}{}) // want `synchronous RPC "cycle\.back" can re-enter its own caller`
		return struct{}{}, err
	})
	return mux
}
