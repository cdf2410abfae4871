// Package orberrfixture exercises the orberr analyzer: bare-statement
// calls that discard an ORB-layer error must be flagged; checked errors,
// explicit blank assignments and void ORB calls must pass.
package orberrfixture

import (
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

func bad(inv orb.Invoker, ref orb.ObjectRef, grm *protocol.GRMClient, ad *orb.Adapter, sv orb.Servant) {
	inv.Invoke(ref, "op", nil) // want `result of ORB invocation Invoke is discarded`
	grm.CancelApp("app-1")     // want `error result of integrade/internal/protocol\.CancelApp is discarded`
	ad.Register("key", sv)     // want `error result of integrade/internal/orb\.Register is discarded`
}

func good(inv orb.Invoker, ref orb.ObjectRef, grm *protocol.GRMClient) error {
	if _, err := inv.Invoke(ref, "op", nil); err != nil {
		return err
	}
	// An explicit blank assignment is a visible decision.
	_ = grm.CancelApp("app-1")
	// Void ORB-layer calls are fine as statements.
	var e orb.Encoder
	e.PutString("ok")
	return nil
}

func allowed(inv orb.Invoker, ref orb.ObjectRef) {
	//lint:allow orberr fire-and-forget ping, reply deliberately ignored
	inv.Invoke(ref, "ping", nil)
}
