package grm

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// windowedNode is a GRM and a status for one node of it, for tests of the
// node record's windows.
func windowedNode(t *testing.T) (*GRM, *sim.VirtualClock, protocol.NodeStatus) {
	t.Helper()
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	t.Cleanup(g.Stop)
	return g, clock, protocol.NodeStatus{
		NodeID:   "n0",
		LRMRef:   orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "n0"}, Key: protocol.LRMKey},
		Platform: resource.Platform{Arch: "amd64", OS: "linux"},
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024},
		GridFree: resource.Vector{MIPS: 1000, RAMMB: 1024},
	}
}

// TestRecordReusesWindowArray: each update's offer advertises the window of
// its own report that covers the update's instant, none of an earlier
// report's. Reports of 3, 0, 2 and 1 windows export window(0), nothing,
// nothing, and nothing for the last, sent at an instant inside the first
// report's third window.
func TestRecordReusesWindowArray(t *testing.T) {
	g, clock, s := windowedNode(t)
	start := clock.Now().UTC()
	// window k spans hours 2k to 2k+1 from the start.
	window := func(k int) protocol.AvailWindow {
		from := start.Add(time.Duration(2*k) * time.Hour)
		return protocol.AvailWindow{Start: from, End: from.Add(time.Hour), Confidence: 0.1 * float64(k+1)}
	}
	reports := []struct {
		at        time.Duration
		windows   []protocol.AvailWindow
		end, conf float64 // the offer's window, zero for none
	}{
		{0, []protocol.AvailWindow{window(0), window(1), window(2)}, float64(window(0).End.Unix()), 0.1},
		{time.Hour, nil, 0, 0},
		{2 * time.Hour, []protocol.AvailWindow{window(3), window(4)}, 0, 0},
		{4*time.Hour + 30*time.Minute, []protocol.AvailWindow{window(5)}, 0, 0}, // inside window(2)
	}
	for i, r := range reports {
		clock.Advance(start.Add(r.at).Sub(clock.Now()))
		s.Timestamp, s.Windows = clock.Now(), r.windows
		if err := sendUpdate(g, s); err != nil {
			t.Fatal(err)
		}
		all := g.Trader().All("")
		if len(all) != 1 {
			t.Fatalf("report %d: the trader holds %d offers, want 1", i, len(all))
		}
		if end, conf := numProp(&all[0], fieldWindowEnd), numProp(&all[0], fieldWindowConf); end != r.end || conf != r.conf {
			t.Fatalf("report %d at %v exported window_end %v, window_conf %v; want %v, %v",
				i, clock.Now().UTC(), end, conf, r.end, r.conf)
		}
	}
}

// TestOverlongForecastRefused: an update carrying more than MaxWindows
// windows is a marshal error that leaves the node's record, UpdatesReceived
// and its offer as they were.
func TestOverlongForecastRefused(t *testing.T) {
	g, clock, s := windowedNode(t)
	now := clock.Now()
	s.Timestamp = now
	s.Windows = []protocol.AvailWindow{{Start: now, End: now.Add(time.Hour), Confidence: 0.5}}
	if err := sendUpdate(g, s); err != nil {
		t.Fatal(err)
	}
	record := func() nodeLiveness {
		g.mu.Lock()
		defer g.mu.Unlock()
		return *g.nodes[s.NodeID]
	}
	offers := func() []trading.Offer { return g.Trader().All("") }
	before, received, offered, version := record(), g.Stats().UpdatesReceived, offers(), g.Trader().Version()

	clock.Advance(time.Second)
	overlong := s
	overlong.Timestamp = clock.Now()
	overlong.GridFree.MIPS = 500
	overlong.Windows = slices.Repeat(s.Windows, protocol.MaxWindows+1)
	if err := sendUpdate(g, overlong); !orb.IsCode(err, orb.CodeMarshal) {
		t.Fatalf("an update with %d windows: err = %v, want a marshal error", len(overlong.Windows), err)
	}
	if after := record(); !reflect.DeepEqual(after, before) {
		t.Errorf("the refused update changed the record:\n got %+v\nwant %+v", after, before)
	}
	if got := g.Stats().UpdatesReceived; got != received {
		t.Errorf("UpdatesReceived = %d after the refused update, want %d", got, received)
	}
	if got := offers(); g.Trader().Version() != version || !reflect.DeepEqual(got, offered) {
		t.Errorf("the refused update changed the offer:\n got %+v\nwant %+v", got, offered)
	}
}
