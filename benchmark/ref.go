package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"
)

// The reference kernels are the benchmark's ruler for the host itself: fixed
// work owned by this directory, run before and after every set-up and at
// every cut of a round. A timing is reported as
// t ÷ mean(ref before, ref after) × nominal, so a host that is 10% slower for
// a minute slows the kernel and the round alike and the ratio holds. The
// nominals are constants of the benchmark: changing them rescales every
// reported time, so they are never changed.
const (
	refLookupNominal = 5500 * time.Microsecond
	refSortNominal   = 5500 * time.Microsecond
	refNetNominal    = 2500 * time.Microsecond

	refCPUInts   = 1 << 16
	refCPUOffers = 10000
	refNetTrips  = 256
	refNetPacket = 64
)

// refSample is one run of a reference kernel: the time of each of its two
// parts. ref_net has a single part and reports it as both.
type refSample [2]time.Duration

const (
	refLookup = iota
	refSort
)

// scale returns what a raw time is multiplied by to normalise it, nominal
// being n and the kernel having run in ref beside it: n ÷ ref of the lookup
// part, or with mixed — for update phases and set-ups, which are half hashed
// lookups (decoding into property maps, the collector's marking) and half
// copying (shard rebuilds, fleet build) — the geometric mean of that and the
// same ratio of the sort part. It is 1 when the kernel did not run.
func (n refSample) scale(ref refSample, mixed bool) float64 {
	if ref[refLookup] <= 0 || ref[refSort] <= 0 {
		return 1
	}
	k := n[refLookup].Seconds() / ref[refLookup].Seconds()
	if mixed {
		k = math.Sqrt(k * n[refSort].Seconds() / ref[refSort].Seconds())
	}
	return k
}

// refKernel is one fixed piece of reference work.
type refKernel interface {
	run() (refSample, error)
	nominal() refSample
}

// refCPU has a part for each of the two things the loopback workloads spend
// their time on (README.md, Noise control, has the measurements).
//
// The lookup part is made of what the scheduling path is made of: hashed
// lookups. It makes 65 536 probes of an int-keyed map, scans 10 000 fixed
// property sets (19 string keys each, the shape of a trader offer) for the
// third or so that pass two thresholds, and stable-sorts those by a
// comparator that reads two more properties. It runs twice and the second
// run is the one timed: the workload touches its offers every few
// milliseconds and so finds them in the shared cache, while the kernel's own
// 20 MB sit idle between cuts and, on a busy host, are evicted — the first
// run pays for fetching them back, which is the neighbours' cost and not the
// workload's, and was measured to move twice as much as the round did.
//
// The sort part copies and sorts 65 536 ints: in-cache compute, which is what
// the trader's copy-on-write shard rebuilds track (they did not follow the
// lookup part: host speed steps hit map-heavy code about twice as hard).
//
// Neither part allocates.
type refCPU struct {
	keys         []int
	table        map[int]int
	offers       []map[string]float64
	matched      []int32
	src, scratch []int
	sink         int
}

// refProps are the property names of a node-status offer.
var refProps = []string{"node", "mips_total", "ram_total", "disk_total", "net_total",
	"mips_free", "ram_free", "disk_free", "net_free", "lan", "os", "arch", "dedicated",
	"owner_busy", "predicted_idle_s", "window_end_unix", "window_conf", "updated_unix", "mgr_epoch"}

func newRefCPU() *refCPU {
	rng := rand.New(rand.NewSource(20030616)) // fixed: the kernel never varies with -seed
	r := &refCPU{
		keys:    make([]int, refCPUInts),
		table:   make(map[int]int, refCPUInts),
		offers:  make([]map[string]float64, refCPUOffers),
		matched: make([]int32, 0, refCPUOffers),
		src:     make([]int, refCPUInts),
		scratch: make([]int, refCPUInts),
	}
	for i := range r.src {
		r.src[i] = rng.Int()
		r.table[r.src[i]] = i
	}
	for i := range r.keys {
		r.keys[i] = r.src[rng.Intn(refCPUInts)]
	}
	for i := range r.offers {
		props := make(map[string]float64, len(refProps))
		for _, name := range refProps {
			props[name] = float64(rng.Intn(3000))
		}
		r.offers[i] = props
	}
	return r
}

func (r *refCPU) run() (refSample, error) {
	r.lookups()
	t0 := time.Now()
	r.lookups()
	t1 := time.Now()
	copy(r.scratch, r.src)
	slices.Sort(r.scratch)
	t2 := time.Now()
	r.sink += r.scratch[0]
	return refSample{refLookup: t1.Sub(t0), refSort: t2.Sub(t1)}, nil
}

func (r *refCPU) lookups() {
	sum := 0
	for _, k := range r.keys {
		sum += r.table[k]
	}
	r.matched = r.matched[:0]
	for i, props := range r.offers {
		if props["mips_free"] >= 1200 && props["ram_free"] >= 1200 {
			r.matched = append(r.matched, int32(i))
		}
	}
	slices.SortStableFunc(r.matched, func(a, b int32) int {
		pa, pb := r.offers[a], r.offers[b]
		if c := cmp.Compare(pb["predicted_idle_s"], pa["predicted_idle_s"]); c != 0 {
			return c
		}
		return cmp.Compare(pb["mips_free"], pa["mips_free"])
	})
	r.sink += sum + len(r.matched)
}

func (r *refCPU) nominal() refSample { return refSample{refLookupNominal, refSortNominal} }

// refNet makes 256 round trips of 64 bytes over a raw loopback TCP
// connection to an echo goroutine: what the kernel's TCP stack and the Go
// netpoller cost on this host right now, with no ORB in the way.
type refNet struct {
	ln   net.Listener
	conn net.Conn
	wg   sync.WaitGroup
	buf  [refNetPacket]byte
}

func newRefNet() (*refNet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ref_net listen: %w", err)
	}
	r := &refNet{ln: ln}
	r.wg.Add(1)
	go r.echo()
	r.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		r.close()
		return nil, fmt.Errorf("ref_net dial: %w", err)
	}
	return r, nil
}

// echo serves the one connection the kernel dials, until it is closed.
func (r *refNet) echo() {
	defer r.wg.Done()
	c, err := r.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	var buf [refNetPacket]byte
	for {
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return
		}
		if _, err := c.Write(buf[:]); err != nil {
			return
		}
	}
}

func (r *refNet) run() (refSample, error) {
	t0 := time.Now()
	for i := 0; i < refNetTrips; i++ {
		r.buf[0] = byte(i)
		if _, err := r.conn.Write(r.buf[:]); err != nil {
			return refSample{}, fmt.Errorf("ref_net write: %w", err)
		}
		if _, err := io.ReadFull(r.conn, r.buf[:]); err != nil {
			return refSample{}, fmt.Errorf("ref_net read: %w", err)
		}
	}
	d := time.Since(t0)
	return refSample{d, d}, nil
}

func (r *refNet) nominal() refSample { return refSample{refNetNominal, refNetNominal} }

func (r *refNet) close() {
	if r.conn != nil {
		_ = r.conn.Close()
	}
	_ = r.ln.Close()
	r.wg.Wait()
}
