package grm

import (
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// Servant exposes the GRM's remote interface: information updates,
// application submission, task notifications, status queries and the
// reconcile exchange.
func (g *GRM) Servant() orb.Servant {
	m := orb.NewOpMux()
	orb.ServeRaw(m, protocol.Update, func(req *orb.Decoder) (int, error) {
		like := g.recordedIdentity(*req)
		// The windows stay on this stack: the record copies them into an
		// array of its own, and the offer takes the one covering now.
		var buf [protocol.MaxWindows]protocol.AvailWindow
		s, windows, events, err := protocol.DecodeUpdate(req, &like, &buf)
		if err != nil {
			return 0, orb.Errorf(orb.CodeMarshal, "update: %v", err)
		}
		epoch, err := g.handleUpdate(&s, windows)
		if err != nil {
			return 0, err
		}
		// Only an accepted update delivers its events: a refused one is
		// answered with an error and the LRM sends them again, to whoever
		// it reports to next.
		for events.Len() > 0 {
			g.handleEvent(events.Next())
		}
		return epoch, nil
	})
	orb.Serve(m, protocol.Submit, g.Submit)
	orb.Serve(m, protocol.Notify, func(ev protocol.TaskEvent) (struct{}, error) {
		g.HandleNotify(ev)
		return struct{}{}, nil
	})
	orb.Serve(m, protocol.Departing, func(n protocol.DepartureNotice) (struct{}, error) {
		g.HandleDeparting(n)
		return struct{}{}, nil
	})
	orb.ServeEncode(m, protocol.GetAppStatus, g.encodeAppStatus)
	orb.Serve(m, protocol.ListApps, func(struct{}) ([]string, error) {
		return g.AppIDs(), nil
	})
	orb.Serve(m, protocol.CancelApp, func(appID string) (struct{}, error) {
		return struct{}{}, g.CancelApp(appID)
	})
	orb.Serve(m, protocol.Reconcile, func(r protocol.ReconcileRequest) ([]string, error) {
		return g.Reconcile(r), nil
	})
	return m
}
