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

// windowedNode is a GRM leading a replica set — its batches land in proposed —
// and a status for one node of it, for tests of the node record's windows.
func windowedNode(t *testing.T) (*GRM, *sim.VirtualClock, *[]byte, protocol.NodeStatus) {
	t.Helper()
	clock := sim.NewVirtualClock()
	g := New("test", clock, orb.New())
	t.Cleanup(g.Stop)
	proposed := new([]byte)
	g.mu.Lock()
	g.repl = newReplicator(g, func(batch []byte) error { *proposed = batch; return nil })
	g.mu.Unlock()
	return g, clock, proposed, protocol.NodeStatus{
		NodeID:   "n0",
		LRMRef:   orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: "n0"}, Key: protocol.LRMKey},
		Platform: resource.Platform{Arch: "amd64", OS: "linux"},
		Capacity: resource.Vector{MIPS: 1000, RAMMB: 1024},
		GridFree: resource.Vector{MIPS: 1000, RAMMB: 1024},
	}
}

// flushedNode flushes g's replica stream and returns the status of node id in
// the batch, as a follower decodes it.
func flushedNode(t *testing.T, g *GRM, proposed *[]byte, id string) protocol.NodeStatus {
	t.Helper()
	g.repl.flush()
	b, err := decodeReplicaBatch(orb.NewDecoder(*proposed))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range b.Nodes {
		if n.id == id && n.lv != nil {
			return n.lv.status
		}
	}
	t.Fatalf("the batch does not carry node %s", id)
	return protocol.NodeStatus{}
}

// TestRecordReusesWindowArray: a node's record copies each update's windows
// into an array of its own and reuses it across updates. After reports of 3,
// 0, 2 and 1 windows it holds exactly the last report's one window, and no
// tail of a longer report before it: not in the replica batch that carries
// the record, and not in the offer restoreOffer re-exports from the record at
// an instant inside the first report's third window.
func TestRecordReusesWindowArray(t *testing.T) {
	g, clock, proposed, s := windowedNode(t)
	start := clock.Now().UTC()
	// window k spans hours 2k to 2k+1 from the start.
	window := func(k int) protocol.AvailWindow {
		from := start.Add(time.Duration(2*k) * time.Hour)
		return protocol.AvailWindow{Start: from, End: from.Add(time.Hour), Confidence: 0.1 * float64(k+1)}
	}
	reports := []struct {
		at      time.Duration
		windows []protocol.AvailWindow
	}{
		{0, []protocol.AvailWindow{window(0), window(1), window(2)}},
		{time.Hour, nil},
		{2 * time.Hour, []protocol.AvailWindow{window(3), window(4)}},
		{4*time.Hour + 30*time.Minute, []protocol.AvailWindow{window(5)}}, // inside window(2)
	}
	for _, r := range reports {
		clock.Advance(start.Add(r.at).Sub(clock.Now()))
		s.Timestamp, s.Windows = clock.Now(), r.windows
		if err := sendUpdate(g, s); err != nil {
			t.Fatal(err)
		}
	}
	last := reports[len(reports)-1].windows
	if got := flushedNode(t, g, proposed, s.NodeID).Windows; !slices.Equal(got, last) {
		t.Fatalf("the replica batch carries windows %+v, want %+v", got, last)
	}
	g.restoreOffer(s.NodeID)
	all := g.Trader().All(NodeStatusType)
	if len(all) != 1 {
		t.Fatalf("the trader holds %d offers, want 1", len(all))
	}
	if end := numProp(&all[0], fieldWindowEnd); end != 0 {
		t.Fatalf("restoreOffer exported win_end %v at %v, want 0: no window the node last reported covers it",
			time.Unix(int64(end), 0).UTC(), clock.Now().UTC())
	}
}

// TestOverlongForecastRefused: an update carrying more than MaxWindows
// windows is a marshal error that leaves the node's record, UpdatesReceived
// and its offer as they were, and a replica batch carrying such a record does
// not decode.
func TestOverlongForecastRefused(t *testing.T) {
	g, clock, _, s := windowedNode(t)
	now := clock.Now()
	s.Timestamp = now
	s.Windows = []protocol.AvailWindow{{Start: now, End: now.Add(time.Hour), Confidence: 0.5}}
	if err := sendUpdate(g, s); err != nil {
		t.Fatal(err)
	}
	record := func() nodeLiveness {
		g.mu.Lock()
		defer g.mu.Unlock()
		lv := *g.nodes[s.NodeID]
		lv.status.Windows = slices.Clone(lv.status.Windows)
		return lv
	}
	offers := func() []trading.Offer { return g.Trader().All(NodeStatusType) }
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

	var e orb.Encoder
	replicaBatch{ClusterID: "test", Seq: 1, Nodes: []nodeEntry{{id: s.NodeID, lv: &nodeLiveness{status: overlong}}}}.encode(&e)
	if b, err := decodeReplicaBatch(orb.NewDecoder(e.Bytes())); err == nil {
		t.Fatalf("a replica batch with a %d-window node decoded: %+v", len(overlong.Windows), b)
	}
}
