package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/orb"
)

// Layers a span can belong to. A client-side RPC span is "orb": its self
// time (span minus the servant span inside it) is framing, transport and
// dispatch. Servant spans carry the layer of the component that serves them.
const (
	layerBench = "bench" // the driver's own bracket spans (lifecycle, drain)
	layerASCT  = "asct"
	layerORB   = "orb"
	layerGRM   = "grm"
	layerLRM   = "lrm"
	layerStub  = "stub" // the 10⁴-node workloads' grant-everything LRMs
)

// span is one recorded interval. Parent is the span that was innermost when
// this one began (0 = none): the workloads keep one RPC chain live at a
// time, so the innermost open span is the cause of the next one even when
// it was opened on another goroutine (a TCP server's request goroutine).
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Round    int32  `json:"round"`
	App      int32  `json:"app"`
	ReqBytes int32  `json:"req_bytes,omitempty"`
	RepBytes int32  `json:"rep_bytes,omitempty"`
}

// tracer records spans in memory. A nil *tracer is the untraced state: every
// method is a no-op, so call sites need no branches.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  []int32 // ids of open spans, innermost last
	round int32
	app   int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setRound and setApp set the driver's current round and application ids,
// stamped on every span begun afterwards. Round 0 is warm-up.
func (t *tracer) setRound(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = int32(id)
	t.mu.Unlock()
}

func (t *tracer) setApp(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.app = int32(id)
	t.mu.Unlock()
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer, op string) int32 { return t.open1(layer, op, false) }

// beginRoot opens a span with no parent, for driver brackets opened while
// another goroutine's span is still open (the gate's blocked Reserve).
func (t *tracer) beginRoot(layer, op string) int32 { return t.open1(layer, op, true) }

func (t *tracer) open1(layer, op string, root bool) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	var parent int32
	if !root && len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Op: op,
		StartNs: now, Round: t.round, App: t.app})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return id
}

// end closes span id. Spans usually close innermost-first, but a bracket
// opened across goroutines may outlive an older span, so the id is removed
// from wherever it sits.
func (t *tracer) end(id int32, reqBytes, repBytes int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.EndNs, sp.ReqBytes, sp.RepBytes = now, int32(reqBytes), int32(repBytes)
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// Intercept implements orb.Interceptor: one client-side span per delivery.
func (t *tracer) Intercept(_ orb.Endpoint, _, op string, arg []byte, next func() ([]byte, error)) ([]byte, error) {
	id := t.begin(layerORB, op)
	reply, err := next()
	t.end(id, len(arg), len(reply))
	return reply, err
}

// snapshot returns the spans recorded so far. Callers read it only after
// the traced pass has ended, when no span is open.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// write dumps the spans of the first measured round as JSON to
// dir/trace-<workload>.json. One round shows every kind of span the workload
// has; the per-layer figures are aggregated over all rounds in memory, and
// writing them all would make files of a hundred megabytes.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var first []span
	for _, sp := range t.snapshot() {
		if sp.Round == 1 {
			first = append(first, sp)
		}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Round    int    `json:"round"`
		Spans    []span `json:"spans"`
	}{workload, 1, first})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// spanStat aggregates the spans of one (layer, op).
type spanStat struct {
	n       int
	totalNs int64 // span durations
	selfNs  int64 // durations minus the parts child spans cover
}

func (s spanStat) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.n) / 1e3
}

func (s spanStat) selfUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.n) / 1e3
}

// aggregate sums durations and self times per (layer, op) over the spans of
// measured rounds (round >= 1; warm-up rounds are stamped 0). With appOnly
// it keeps only spans stamped with an application id.
func (t *tracer) aggregate(appOnly bool) map[[2]string]spanStat {
	spans := t.snapshot()
	child := make([]int64, len(spans)+1)
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != 0 {
			child[sp.Parent] += sp.EndNs - sp.StartNs
		}
	}
	out := make(map[[2]string]spanStat)
	for i := range spans {
		sp := &spans[i]
		if sp.Round < 1 || (appOnly && sp.App == 0) {
			continue
		}
		key := [2]string{sp.Layer, sp.Op}
		st := out[key]
		st.n++
		st.totalNs += sp.EndNs - sp.StartNs
		st.selfNs += sp.EndNs - sp.StartNs - child[sp.ID]
		out[key] = st
	}
	return out
}

// meter counts what crosses the servants it wraps; on a traced pass it also
// records a server-side span per request. The counters run on every pass —
// two atomic adds per RPC — because the determinism guard compares them.
type meter struct {
	rpcs     atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	tr       *tracer
}

// wrap returns s with counting (and, when traced, timing) around Dispatch.
func (m *meter) wrap(layer string, s orb.Servant) orb.Servant {
	return orb.ServantFunc(func(op string, req *orb.Decoder) (*orb.Encoder, error) {
		in := req.Remaining()
		m.rpcs.Add(1)
		m.bytesIn.Add(int64(in))
		id := m.tr.begin(layer, op)
		enc, err := s.Dispatch(op, req)
		out := 0
		if enc != nil {
			out = enc.Len()
		}
		m.tr.end(id, in, out)
		m.bytesOut.Add(int64(out))
		return enc, err
	})
}
