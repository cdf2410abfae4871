package grm

import (
	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// Servant exposes the GRM's remote interface: information updates,
// application submission, task notifications, status queries and the
// reconcile exchange.
func (g *GRM) Servant() orb.Servant {
	return orb.NewOpMux().
		Handle(protocol.OpUpdate, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			like := g.recordedIdentity(*req)
			// The windows stay on this stack: the record copies them into an
			// array of its own, and the offer takes the one covering now.
			var buf [protocol.MaxWindows]protocol.AvailWindow
			s, windows, events, err := protocol.DecodeUpdate(req, &like, &buf)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "update: %v", err)
			}
			epoch, err := g.handleUpdate(&s, windows)
			if err != nil {
				return nil, orb.Errorf(orb.CodeApplication, "%s", err.Error())
			}
			// Only an accepted update delivers its events: a refused one is
			// answered with an error and the LRM sends them again, to whoever
			// it reports to next.
			for _, ev := range events {
				g.HandleNotify(ev)
			}
			e := orb.GetEncoder()
			e.Grow(8)
			e.PutInt(epoch)
			return e, nil
		}).
		Handle(protocol.OpSubmit, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			spec, err := protocol.DecodeApplicationSpec(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "submit: %v", err)
			}
			id, err := g.Submit(spec)
			if err != nil {
				return nil, orb.Errorf(orb.CodeApplication, "%s", err.Error())
			}
			e := orb.GetEncoder()
			e.Grow(4 + len(id))
			e.PutString(id)
			return e, nil
		}).
		Handle(protocol.OpNotify, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			ev, err := protocol.DecodeTaskEvent(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "notify: %v", err)
			}
			g.HandleNotify(ev)
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpDeparting, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			n, err := protocol.DecodeDepartureNotice(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "departing: %v", err)
			}
			g.HandleDeparting(n)
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpAppStatus, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			appID := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "appStatus: %v", err)
			}
			st, err := g.AppStatus(appID)
			if err != nil {
				return nil, orb.Errorf(orb.CodeApplication, "%s", err.Error())
			}
			e := orb.GetEncoder()
			st.Encode(e)
			return e, nil
		}).
		Handle(protocol.OpListApps, func(string, *orb.Decoder) (*orb.Encoder, error) {
			e := orb.GetEncoder()
			e.PutStrings(g.AppIDs())
			return e, nil
		}).
		Handle(protocol.OpCancelApp, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			appID := req.String()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "cancelApp: %v", err)
			}
			if err := g.CancelApp(appID); err != nil {
				return nil, orb.Errorf(orb.CodeApplication, "%s", err.Error())
			}
			return &orb.Encoder{}, nil
		}).
		Handle(protocol.OpReconcile, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			r, err := protocol.DecodeReconcileRequest(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "reconcile: %v", err)
			}
			e := orb.GetEncoder()
			e.PutStrings(g.Reconcile(r))
			return e, nil
		})
}
