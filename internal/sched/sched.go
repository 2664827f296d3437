// Package sched plans skew-aware broadcast schedules: it turns a query
// trace into per-frame access frequencies (Profile), cuts the
// Hilbert-ordered frame sequence into contiguous shards whose
// load-weighted cycle lengths are minimal (Partition), and emits the
// shard boundaries as a dsi.Layout-compatible placement (Plan) in which
// every shard is a broadcast disk: a data channel cycling through just
// its own frames, so a small, hot shard rebroadcasts its frames
// proportionally more often than a large, cold one.
//
// The planning objective is the classic broadcast-disks one. A query
// for a frame in shard s waits, in expectation, half of the shard's
// cycle length |s|*DataPackets; with P(s) the probability that a query
// hits shard s, the expected data wait is proportional to
//
//	sum_s P(s) * |s|
//
// which Partition minimizes exactly over all contiguous partitions (the
// cost is a Monge matrix, so the divide-and-conquer optimization of the
// underlying dynamic program is exact). Uniform striping — equal-size
// shards — is the profile-free special case; under a skewed profile the
// optimum assigns hot spans short cycles and recovers it as theta -> 0.
package sched

import (
	"fmt"
	"math"

	"dsi/internal/dsi"
	"dsi/internal/hilbert"
)

// Profile holds per-frame access frequencies of a DSI broadcast,
// accumulated from a query trace. The zero weight is a valid profile
// (uniform partition); weights need not be normalized.
type Profile struct {
	X *dsi.Index
	// Freq[f] is the accumulated access weight of frame f.
	Freq []float64
}

// NewProfile returns an empty profile over the index's frames.
func NewProfile(x *dsi.Index) *Profile {
	return &Profile{X: x, Freq: make([]float64, x.NF)}
}

// AddRange accumulates weight w on every frame that can hold objects
// with HC values in [lo, hi): the frames a query for that range visits.
func (p *Profile) AddRange(lo, hi uint64, w float64) {
	charge(p.X, p.Freq, []hilbert.Range{{Lo: lo, Hi: hi}}, w)
}

// AddRanges charges the target ranges (one query's HC decomposition)
// as AddRange charges each: a frame gains w once per range it can hold
// objects of, so a frame holding several of a window's ranges gains w
// several times.
func (p *Profile) AddRanges(targets []hilbert.Range, w float64) {
	charge(p.X, p.Freq, targets, w)
}

// charge adds weight w, range by range, to every frame of x that can
// hold objects with HC values in each target range — the shared core of
// the offline Profile and the decayed OnlineProfiler. A range charges
// the first frame whose successor starts at or above its Lo, up to the
// last frame starting below its Hi. The >= (rather than >) keeps a
// frame whose last objects duplicate the next frame's minimum HC == Lo
// in the charged set; without duplicates it can at most charge one
// extra boundary frame, which a frequency profile tolerates.
//
// One pass serves a query's ranges: they ascend, so each range's first
// frame is searched from the previous range's, galloping forward. A
// range starting below the one before it searches from frame 0 again.
func charge(x *dsi.Index, freq []float64, targets []hilbert.Range, w float64) {
	if w == 0 {
		return
	}
	f, prev := 0, uint64(0)
	for _, r := range targets {
		if r.Lo >= r.Hi {
			continue
		}
		if r.Lo < prev {
			f = 0
		}
		prev = r.Lo
		f = firstFrame(x, f, r.Lo)
		for g := f; g < x.NF && x.MinHC(g) < r.Hi; g++ {
			freq[g] += w
		}
	}
}

// firstFrame returns the first frame f >= from whose successor starts
// at or above lo, or the last frame: the first where the successor
// test holds, which it does from some frame on. It probes from+1,
// from+3, from+7, ... until the test holds, then bisects the last gap.
func firstFrame(x *dsi.Index, from int, lo uint64) int {
	last := x.NF - 1
	if from >= last || x.MinHC(from+1) >= lo {
		return from
	}
	// The test fails at below and holds at above.
	below, above := from, last
	for step := 2; ; step *= 2 {
		probe := from + step - 1
		if probe >= last {
			break
		}
		if x.MinHC(probe+1) >= lo {
			above = probe
			break
		}
		below = probe
	}
	for above-below > 1 {
		m := int(uint(below+above) >> 1)
		if x.MinHC(m+1) >= lo {
			above = m
		} else {
			below = m
		}
	}
	return above
}

// Total returns the accumulated weight across all frames.
func (p *Profile) Total() float64 {
	var t float64
	for _, w := range p.Freq {
		t += w
	}
	return t
}

// Plan is a shard schedule: bounds[s] .. bounds[s+1] delimit shard s,
// one data channel per shard.
type Plan struct {
	X *dsi.Index
	// Bounds are the shard boundaries: ascending frame ids from 0 to
	// NF, len = shards+1. They plug into dsi.MultiConfig.ShardBounds.
	Bounds []int
	// Load[s] is the fraction of the profile's weight falling on shard
	// s (0 for an unweighted profile).
	Load []float64
}

// Shards returns the number of shards.
func (p *Plan) Shards() int { return len(p.Bounds) - 1 }

// ExpectedWait returns the load-weighted mean data wait of the plan in
// packet slots: sum_s Load[s] * |s| * DataPackets / 2, the
// broadcast-disks objective the partitioner minimizes. dataPackets is
// the per-frame data payload in slots (dsi.Layout.DataPackets).
func (p *Plan) ExpectedWait(dataPackets int) float64 {
	var w float64
	for s := 0; s < p.Shards(); s++ {
		w += p.Load[s] * float64(p.Bounds[s+1]-p.Bounds[s])
	}
	return w * float64(dataPackets) / 2
}

// MultiConfig returns the dsi layout configuration realizing the plan:
// one data channel per shard plus the index channel.
func (p *Plan) MultiConfig(switchSlots int) dsi.MultiConfig {
	return dsi.MultiConfig{
		Channels:    p.Shards() + 1,
		Scheduler:   dsi.SchedShard,
		SwitchSlots: switchSlots,
		ShardBounds: p.Bounds,
	}
}

// Layout places the plan's index onto its channels.
func (p *Plan) Layout(switchSlots int) (*dsi.Layout, error) {
	return dsi.NewLayout(p.X, p.MultiConfig(switchSlots))
}

func (p *Plan) String() string {
	return fmt.Sprintf("Plan{%d shards over %d frames, bounds %v}", p.Shards(), p.X.NF, p.Bounds)
}

// Partition cuts the profile's frames into k contiguous shards
// minimizing the expected data wait sum_s P(s)*|s| and returns the
// resulting plan. It errors when k exceeds the frame count or the
// index's broadcast is reorganized (shards are HC spans; interleaved
// segments would break their contiguity on air). A zero (or uniform)
// profile yields balanced shards. Cut points are snapped forward off
// duplicate frame minima so every shard starts on a fresh HC value (the
// shard split doubles as catalog knowledge).
func Partition(p *Profile, k int) (*Plan, error) {
	x := p.X
	if x.Cfg.Segments != 1 {
		return nil, fmt.Errorf("sched: cannot shard a reorganized broadcast (m=%d)", x.Cfg.Segments)
	}
	if k < 1 || k > x.NF {
		return nil, fmt.Errorf("sched: %d shards for %d frames", k, x.NF)
	}
	freq := p.Freq
	if p.Total() == 0 {
		// No observations: every partition costs zero, so optimize the
		// uniform-access objective instead, which yields balanced
		// shards (the striping baseline).
		freq = make([]float64, x.NF)
		for f := range freq {
			freq[f] = 1
		}
	}
	bounds := partitionMonge(freq, k)
	if err := snapBounds(x, bounds); err != nil {
		return nil, err
	}
	return planFor(p, bounds), nil
}

// snapBounds snaps cut points off duplicate frame minima, in place
// (multi-object frames can repeat an HC value across a frame boundary):
// shards must begin on a strictly larger minimum than their predecessor
// frame ends with, so each cut moves forward past the duplicate run.
// Left to right, so a moved cut can push the next one along; a workload
// whose duplicates leave no room for k distinct cuts is rejected rather
// than silently emitting bounds the layout would refuse.
func snapBounds(x *dsi.Index, bounds []int) error {
	k := len(bounds) - 1
	for s := 1; s < k; s++ {
		if bounds[s] <= bounds[s-1] {
			bounds[s] = bounds[s-1] + 1
		}
		for bounds[s] < x.NF && x.MinHC(bounds[s]) <= x.MinHC(bounds[s]-1) {
			bounds[s]++
		}
		if bounds[s] >= x.NF {
			return fmt.Errorf("sched: duplicate frame minima leave no room for %d shards", k)
		}
	}
	return nil
}

// planFor assembles the plan over the given bounds, with per-shard
// loads taken from the profile.
func planFor(p *Profile, bounds []int) *Plan {
	k := len(bounds) - 1
	plan := &Plan{X: p.X, Bounds: bounds, Load: make([]float64, k)}
	if total := p.Total(); total > 0 {
		for s := 0; s < k; s++ {
			var w float64
			for f := bounds[s]; f < bounds[s+1]; f++ {
				w += p.Freq[f]
			}
			plan.Load[s] = w / total
		}
	}
	return plan
}

// Uniform returns the profile-free plan: k balanced shards, the
// equal-bandwidth baseline a skew-aware plan is compared against.
func Uniform(x *dsi.Index, k int) (*Plan, error) {
	return Partition(NewProfile(x), k)
}

// partitionMonge minimizes sum over shards of (shard weight)*(shard
// length) across all partitions of w into k non-empty contiguous runs,
// returning the boundaries (len k+1, from 0 to len(w)).
func partitionMonge(w []float64, k int) []int {
	var d mongeDP
	return d.cut(w, k)
}

// mongeDP holds the working arrays of the divide-and-conquer Monge DP,
// so a long-lived re-planner re-cutting the same broadcast over and
// over reuses its buffers instead of reallocating O(n·k) state per cut.
type mongeDP struct {
	pre, prev, cur []float64
	choice         [][]int32
}

// grow sizes the working arrays for an (n, k) instance, recycling prior
// storage.
func (d *mongeDP) grow(n, k int) {
	need := n + 1
	// cur is the smallest of the three views into the shared buffer, so
	// its capacity decides whether the whole buffer fits this instance.
	if cap(d.cur) < need {
		buf := make([]float64, 3*need)
		d.pre, d.prev, d.cur = buf[:need], buf[need:2*need], buf[2*need:]
	} else {
		d.pre, d.prev, d.cur = d.pre[:need], d.prev[:need], d.cur[:need]
	}
	if len(d.choice) < k+1 {
		d.choice = append(d.choice, make([][]int32, k+1-len(d.choice))...)
	}
	for s := 0; s <= k; s++ {
		if cap(d.choice[s]) < need {
			d.choice[s] = make([]int32, need)
		} else {
			d.choice[s] = d.choice[s][:need]
		}
	}
}

// cut runs the DP: dp[s][i] = best cost of cutting the first i frames
// into s shards; the transition cost C(j, i) = (W[i]-W[j])*(i-j)
// satisfies the quadrangle inequality ((c-d)(x-y) + (a-b)(u-v) >= 0 for
// monotone prefix sums), so the row-wise argmins are monotone and each
// DP row fills in O(n log n) by divide and conquer.
func (d *mongeDP) cut(w []float64, k int) []int {
	n := len(w)
	d.grow(n, k)
	pre := d.pre
	pre[0] = 0
	for i, v := range w {
		pre[i+1] = pre[i] + v
	}
	cost := func(j, i int) float64 { return (pre[i] - pre[j]) * float64(i-j) }

	prev, cur := d.prev, d.cur // prev: dp for s-1 shards
	choice := d.choice         // choice[s][i]: best j for dp[s][i]
	for i := 0; i <= n; i++ {
		prev[i] = math.Inf(1)
	}
	prev[0] = 0

	// fill computes cur[iLo..iHi] knowing the optimal split index lies
	// in [jLo, jHi] (divide and conquer over the monotone argmin).
	var fill func(s, iLo, iHi, jLo, jHi int)
	fill = func(s, iLo, iHi, jLo, jHi int) {
		if iLo > iHi {
			return
		}
		mid := (iLo + iHi) / 2
		best, bestJ := math.Inf(1), -1
		hi := jHi
		if hi > mid-1 {
			hi = mid - 1
		}
		for j := jLo; j <= hi; j++ {
			if prev[j] == math.Inf(1) {
				continue
			}
			if c := prev[j] + cost(j, mid); c < best {
				best, bestJ = c, j
			}
		}
		cur[mid] = best
		if bestJ < 0 {
			bestJ = jLo
		}
		choice[s][mid] = int32(bestJ)
		fill(s, iLo, mid-1, jLo, bestJ)
		fill(s, mid+1, iHi, bestJ, jHi)
	}

	for s := 1; s <= k; s++ {
		for i := 0; i <= n; i++ {
			cur[i] = math.Inf(1)
		}
		// i ranges over [s, n-(k-s)]: enough frames before for s shards
		// and after for the remaining k-s.
		fill(s, s, n-(k-s), s-1, n-(k-s)-1)
		prev, cur = cur, prev
	}

	bounds := make([]int, k+1)
	bounds[k] = n
	for s := k; s >= 1; s-- {
		bounds[s-1] = int(choice[s][bounds[s]])
	}
	return bounds
}
