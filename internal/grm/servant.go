package grm

import (
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// Servant exposes the GRM's remote interface: information updates,
// application submission, task notifications, status queries and the
// reconcile exchange. A replica that may not accept writes (refusalLocked)
// refuses every one, and answers reads from its replicated view.
func (g *GRM) Servant() orb.Servant {
	m := orb.NewOpMux()
	orb.ServeRaw(m, protocol.Update, g.handleUpdate)
	orb.Serve(m, protocol.Submit, g.Submit)
	orb.Serve(m, protocol.Notify, func(ev protocol.TaskEvent) (struct{}, error) {
		if err := g.refusal(); err != nil {
			return struct{}{}, err
		}
		g.HandleNotify(ev)
		return struct{}{}, nil
	})
	orb.ServeEncode(m, protocol.GetAppStatus, g.encodeAppStatus)
	orb.Serve(m, protocol.ListApps, func(struct{}) ([]string, error) {
		return g.AppIDs(), nil
	})
	orb.Serve(m, protocol.CancelApp, func(appID string) (struct{}, error) {
		if err := g.refusal(); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, g.CancelApp(appID)
	})
	orb.Serve(m, protocol.Reconcile, func(r protocol.ReconcileRequest) ([]string, error) {
		if err := g.refusal(); err != nil {
			return nil, err
		}
		return g.Reconcile(r), nil
	})
	return m
}
