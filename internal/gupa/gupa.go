// Package gupa implements the Global Usage Pattern Analyzer: the
// cluster-manager-side aggregation point for per-node usage patterns.
//
// Per the paper: "Each node's usage pattern is periodically uploaded to the
// GUPA. This information is made available to the GRM, which can make better
// scheduling decisions due to the possibility of predicting a node's idle
// periods based on its usage patterns."
package gupa

import (
	"sort"
	"sync"
	"time"

	"integrade/internal/lupa"
	"integrade/internal/orb"
)

// ObjectKey is the adapter key under which the GUPA servant registers.
const ObjectKey = "gupa"

// Service stores the latest uploaded pattern per node. Safe for concurrent
// use.
type Service struct {
	// mu guards patterns and uploads.
	mu       sync.RWMutex
	patterns map[string]lupa.Pattern
	uploads  int
}

// NewService returns an empty GUPA.
func NewService() *Service {
	return &Service{patterns: make(map[string]lupa.Pattern)}
}

// Upload stores (replaces) the pattern for a node.
func (s *Service) Upload(nodeID string, p lupa.Pattern) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.patterns[nodeID] = p
	s.uploads++
}

// Pattern returns the stored pattern for a node.
func (s *Service) Pattern(nodeID string) (lupa.Pattern, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.patterns[nodeID]
	return p, ok
}

// Nodes returns the IDs with stored patterns, sorted.
func (s *Service) Nodes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.patterns))
	for id := range s.patterns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Uploads returns the total number of pattern uploads received.
func (s *Service) Uploads() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.uploads
}

// PredictIdle estimates the remaining idle span of a node at t from its
// uploaded pattern, using the weekday's likely category (the GUPA lacks the
// node's intra-day observations — those sharpen the node-local LUPA
// prediction, which LRM status updates carry). ok is false when the node has
// no trained pattern.
func (s *Service) PredictIdle(nodeID string, t time.Time) (time.Duration, bool) {
	p, found := s.Pattern(nodeID)
	if !found || !p.Trained() {
		return 0, false
	}
	t = t.UTC()
	midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	slot := int(t.Sub(midnight) / (24 * time.Hour / time.Duration(len(p.Centroids[0]))))
	cat := p.LikelyCategory(t.Weekday())
	span := p.IdleSpanFrom(cat, slot)
	slots := len(p.Centroids[0])
	if slot >= 0 && slot < slots {
		full := time.Duration(slots-slot) * (24 * time.Hour / time.Duration(slots))
		if span == full {
			next := p.LikelyCategory(t.AddDate(0, 0, 1).Weekday())
			span += p.IdleSpanFrom(next, 0)
		}
	}
	return span, true
}

// Forecast converts a node's uploaded pattern into availability windows
// covering [from, from+horizon) — the cluster-side view of the same forecast
// the node's LRM computes locally, minus the intra-day live match (the GUPA
// only holds the trained pattern). Nil when the node has no trained pattern.
func (s *Service) Forecast(nodeID string, from time.Time, horizon time.Duration) []lupa.Window {
	p, found := s.Pattern(nodeID)
	if !found {
		return nil
	}
	return p.Forecast(from, horizon)
}

// Wire operation names.
const (
	opUpload  = "upload"
	opPredict = "predictIdle"
	opNodes   = "nodes"
)

// EncodePattern writes a pattern.
func EncodePattern(e *orb.Encoder, p lupa.Pattern) {
	e.PutInt(p.Days)
	e.PutU32(uint32(len(p.Centroids)))
	for _, c := range p.Centroids {
		e.PutU32(uint32(len(c)))
		for _, v := range c {
			e.PutF64(v)
		}
	}
	for w := range p.WeekdayCounts {
		e.PutU32(uint32(len(p.WeekdayCounts[w])))
		for _, n := range p.WeekdayCounts[w] {
			e.PutInt(n)
		}
	}
}

// DecodePattern reads a pattern written by EncodePattern.
func DecodePattern(d *orb.Decoder) (lupa.Pattern, error) {
	var p lupa.Pattern
	p.Days = d.Int()
	nc := d.Count(4)
	if err := d.Err(); err != nil {
		return lupa.Pattern{}, err
	}
	p.Centroids = make([][]float64, nc)
	for i := range p.Centroids {
		n := d.Count(8)
		if err := d.Err(); err != nil {
			return lupa.Pattern{}, err
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = d.F64()
		}
		p.Centroids[i] = c
	}
	for w := range p.WeekdayCounts {
		n := d.Count(8)
		if err := d.Err(); err != nil {
			return lupa.Pattern{}, err
		}
		counts := make([]int, n)
		for j := range counts {
			counts[j] = d.Int()
		}
		p.WeekdayCounts[w] = counts
	}
	return p, d.Err()
}

// Servant exposes the GUPA as an ORB servant.
func Servant(s *Service) orb.Servant {
	return orb.NewOpMux().
		Handle(opUpload, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			nodeID := req.String()
			p, err := DecodePattern(req)
			if err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "upload: %v", err)
			}
			s.Upload(nodeID, p)
			return &orb.Encoder{}, nil
		}).
		Handle(opPredict, func(_ string, req *orb.Decoder) (*orb.Encoder, error) {
			nodeID := req.String()
			at := req.Time()
			if err := req.Err(); err != nil {
				return nil, orb.Errorf(orb.CodeMarshal, "predictIdle: %v", err)
			}
			span, ok := s.PredictIdle(nodeID, at)
			var e orb.Encoder
			e.PutBool(ok)
			e.PutDuration(span)
			return &e, nil
		}).
		Handle(opNodes, func(string, *orb.Decoder) (*orb.Encoder, error) {
			var e orb.Encoder
			e.PutStrings(s.Nodes())
			return &e, nil
		})
}

// Client is a typed stub for a remote GUPA.
type Client struct {
	inv orb.Invoker
	ref orb.ObjectRef
}

// NewClient returns a stub invoking the GUPA at ref via inv.
func NewClient(inv orb.Invoker, ref orb.ObjectRef) *Client {
	return &Client{inv: inv, ref: ref}
}

// Upload sends a node's pattern.
func (c *Client) Upload(nodeID string, p lupa.Pattern) error {
	var e orb.Encoder
	e.PutString(nodeID)
	EncodePattern(&e, p)
	_, err := c.inv.Invoke(c.ref, opUpload, e.Bytes())
	return err
}

// PredictIdle queries the remote idle prediction.
func (c *Client) PredictIdle(nodeID string, at time.Time) (time.Duration, bool, error) {
	var e orb.Encoder
	e.PutString(nodeID)
	e.PutTime(at)
	reply, err := c.inv.Invoke(c.ref, opPredict, e.Bytes())
	if err != nil {
		return 0, false, err
	}
	d := orb.NewDecoder(reply)
	ok := d.Bool()
	span := d.Duration()
	if err := d.Err(); err != nil {
		return 0, false, orb.Errorf(orb.CodeMarshal, "predictIdle reply: %v", err)
	}
	return span, ok, nil
}

// Nodes lists nodes with patterns.
func (c *Client) Nodes() ([]string, error) {
	reply, err := c.inv.Invoke(c.ref, opNodes, nil)
	if err != nil {
		return nil, err
	}
	d := orb.NewDecoder(reply)
	names := d.Strings()
	if err := d.Err(); err != nil {
		return nil, orb.Errorf(orb.CodeMarshal, "nodes reply: %v", err)
	}
	return names, nil
}
