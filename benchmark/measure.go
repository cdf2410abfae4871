package main

import (
	"runtime"
	"slices"
	"time"
)

// segment is a stretch of a round between two runs of the reference kernel.
type segment struct {
	total   time.Duration   // everything timed in the stretch
	updates time.Duration   // the update phases among it
	placed  []time.Duration // submit → placed samples
}

// bulk reports whether the stretch held update phases and nothing else: such
// a segment is paced by both parts of the kernel, any other by refLookup.
func (s *segment) bulk() bool { return s.total > 0 && s.updates == s.total }

// roundSample is what one round measured, in raw host time. A measured round
// is cut into segments of a tenth of a second or so, with the reference
// kernel run at every cut: refs[i] and refs[i+1] bracket segs[i]. Warm-up
// rounds have no kernel and so no refs.
type roundSample struct {
	ref  refKernel
	err  error // first failure of the reference kernel
	segs []segment
	refs []refSample

	apps  int
	nUpd  int
	rpcs  int64 // RPCs and bytes of the submit phases only
	bytes int64
}

// begin opens the round's first segment. A forced collection comes first so
// that every round starts from the same heap state.
func (rs *roundSample) begin(ref refKernel) {
	rs.ref = ref
	if ref != nil {
		runtime.GC()
	}
	rs.cut()
}

// cut ends the current segment, runs the reference kernel and opens the next
// segment.
func (rs *roundSample) cut() {
	rs.sample()
	rs.segs = append(rs.segs, segment{})
}

// end closes the last segment.
func (rs *roundSample) end() { rs.sample() }

func (rs *roundSample) sample() {
	if rs.ref == nil {
		return
	}
	d, err := rs.ref.run()
	if err != nil && rs.err == nil {
		rs.err = err
	}
	rs.refs = append(rs.refs, d)
}

// cur is the open segment.
func (rs *roundSample) cur() *segment { return &rs.segs[len(rs.segs)-1] }

// addUpdates books a timed update phase.
func (rs *roundSample) addUpdates(d time.Duration, n int) {
	seg := rs.cur()
	seg.updates += d
	seg.total += d
	rs.nUpd += n
}

// addPlaced books one timed submit → placed sample covering apps applications.
func (rs *roundSample) addPlaced(d time.Duration, apps int) {
	seg := rs.cur()
	seg.placed = append(seg.placed, d)
	seg.total += d
	rs.apps += apps
}

// rawTotal is the round's timed total.
func (rs *roundSample) rawTotal() time.Duration {
	var d time.Duration
	for i := range rs.segs {
		d += rs.segs[i].total
	}
	return d
}

// factors returns, per segment, what a raw time in it is multiplied by to
// normalise it: nominal ÷ the mean of the two kernel runs bracketing the
// segment — of their lookup part for a segment that places applications, and
// the geometric mean of that and the same ratio of the sort part for one that
// only updates (refSample.scale). Each part's series is first smoothed by a
// running median of three, which removes a single preempted run and keeps a
// lasting change of speed.
func (rs *roundSample) factors(nominal refSample, normalise bool) []float64 {
	ks := make([]float64, len(rs.segs))
	for i := range ks {
		ks[i] = 1
	}
	if !normalise || len(rs.refs) != len(rs.segs)+1 {
		return ks
	}
	smooth := make([]refSample, len(rs.refs))
	for i := range rs.refs {
		window := rs.refs[max(i-1, 0) : min(i+1, len(rs.refs)-1)+1]
		for part := range smooth[i] {
			ds := make([]time.Duration, len(window))
			for j, d := range window {
				ds[j] = d[part]
			}
			slices.Sort(ds)
			smooth[i][part] = (ds[(len(ds)-1)/2] + ds[len(ds)/2]) / 2
		}
	}
	for i := range ks {
		var ref refSample
		for part := range ref {
			ref[part] = (smooth[i][part] + smooth[i+1][part]) / 2
		}
		ks[i] = nominal.scale(ref, rs.segs[i].bulk())
	}
	return ks
}
