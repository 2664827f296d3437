// Online re-planning: the drifting-workload counterpart of the offline
// Profile/Partition pair. An OnlineProfiler maintains exponentially
// decayed per-frame access counts, updated in O(touched frames) per
// query; a Replanner re-cuts the broadcast with the same
// divide-and-conquer Monge DP the offline partitioner uses (its working
// arrays recycled across cuts) and reports how far the live plan has
// drifted from the fresh optimum, so a transmitter replans only when
// the drift exceeds a configured ratio.

package sched

import (
	"fmt"
	"math"

	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/obs"
)

// rescaleAbove bounds the lazy decay scale: when the per-observation
// weight grows past it, the accumulated counts are renormalized once
// (O(frames), amortized over the hundreds of observations it takes the
// scale to grow that far).
const rescaleAbove = 1e150

// OnlineProfiler accumulates exponentially decayed per-frame access
// frequencies from a live query stream. After n further observations an
// old observation's weight has decayed by 0.5^(n/halfLife), so the
// profile tracks the current access skew and forgets a migrated-away
// hot spot within a few half-lives.
//
// Decay is lazy: instead of multiplying every count by the decay factor
// per observation (O(frames) each), new observations are charged with a
// growing scale — equivalent weights at O(ranges) per update — and the
// counts are renormalized only when the scale nears overflow.
//
// An OnlineProfiler is not safe for concurrent use; the transmitter's
// planning loop owns it.
type OnlineProfiler struct {
	x     *dsi.Index
	freq  []float64 // scaled decayed counts
	scale float64   // weight of a unit observation now
	decay float64   // per-observation decay factor in (0, 1]
	n     int64
}

// NewOnlineProfiler returns an empty decayed profile over the index's
// frames. halfLife is the observation count over which an observation's
// influence halves; halfLife <= 0 disables decay (plain counting, the
// offline Profile's semantics).
func NewOnlineProfiler(x *dsi.Index, halfLife float64) *OnlineProfiler {
	decay := 1.0
	if halfLife > 0 {
		decay = math.Exp2(-1 / halfLife)
	}
	return &OnlineProfiler{
		x:     x,
		freq:  make([]float64, x.NF),
		scale: 1,
		decay: decay,
	}
}

// Queries returns the number of observations absorbed so far.
func (op *OnlineProfiler) Queries() int64 { return op.n }

// Observe absorbs one query: every earlier observation decays by one
// decay step and weight w is charged for the query's target ranges
// (its HC decomposition) exactly as Profile.AddRanges charges them:
// once per range a frame can hold objects of. Cost is O(frames touched
// by the ranges).
func (op *OnlineProfiler) Observe(targets []hilbert.Range, w float64) {
	op.tick()
	charge(op.x, op.freq, targets, w*op.scale)
}

// ObserveRange is Observe for a single pre-decomposed range.
func (op *OnlineProfiler) ObserveRange(lo, hi uint64, w float64) {
	op.tick()
	charge(op.x, op.freq, []hilbert.Range{{Lo: lo, Hi: hi}}, w*op.scale)
}

// tick advances the decay clock by one observation and renormalizes
// when the lazy scale nears overflow.
func (op *OnlineProfiler) tick() {
	op.n++
	op.scale /= op.decay
	if op.scale > rescaleAbove {
		inv := 1 / op.scale
		for f := range op.freq {
			op.freq[f] *= inv
		}
		op.scale = 1
	}
}

// Seed adds an offline profile's counts at weight w, as if its whole
// accumulation had just been observed (it decays as one batch). A
// transmitter warm-starts its online profiler from the training profile
// its initial plan was cut from, so the first live observations refine
// a populated profile instead of whipsawing an empty one.
func (op *OnlineProfiler) Seed(p *Profile, w float64) {
	if p.X != op.x {
		panic("sched: seeding from a profile of a different index")
	}
	for f, v := range p.Freq {
		op.freq[f] += v * w * op.scale
	}
}

// Snapshot materializes the current decayed profile into dst (allocated
// when nil), normalized so the most recent observation has weight ~1.
// The snapshot is an ordinary Profile: Partition and Replan consume it.
func (op *OnlineProfiler) Snapshot(dst *Profile) *Profile {
	if dst == nil {
		dst = NewProfile(op.x)
	}
	if dst.X != op.x {
		panic("sched: snapshot into a profile of a different index")
	}
	if len(dst.Freq) != op.x.NF {
		dst.Freq = make([]float64, op.x.NF)
	}
	inv := 1 / op.scale
	for f, v := range op.freq {
		dst.Freq[f] = v * inv
	}
	return dst
}

// PlanCost returns the broadcast-disks objective of the given shard
// bounds under the frequency vector: sum over shards of (shard
// weight)·(shard length), the quantity Partition minimizes. Frequencies
// need not be normalized; ratios of PlanCost values are scale-free.
func PlanCost(freq []float64, bounds []int) float64 {
	var c float64
	for s := 0; s+1 < len(bounds); s++ {
		var w float64
		for f := bounds[s]; f < bounds[s+1]; f++ {
			w += freq[f]
		}
		c += w * float64(bounds[s+1]-bounds[s])
	}
	return c
}

// Replanner owns the reusable state of the online re-planning loop: the
// Monge DP's working arrays survive across cuts, so a steady-state
// Replan allocates only the returned Plan. The zero value is ready for
// use.
type Replanner struct {
	dp mongeDP

	// met, when set, counts planning checks, trigger/skip decisions, and
	// the measured drift ratios. Nil counts nothing.
	met *obs.SchedMetrics
}

// SetObs installs the scheduler metric bundle (nil counts nothing).
func (r *Replanner) SetObs(m *obs.SchedMetrics) { r.met = m }

// count records one successful planning pass's outcome.
func (r *Replanner) count(drift float64, replan bool) {
	if r.met == nil {
		return
	}
	r.met.Checks.Inc()
	if replan {
		r.met.ReplansTriggered.Inc()
	} else {
		r.met.ReplansSkipped.Inc()
	}
	r.met.DriftRatio.Set(drift)
	r.met.Drift.Observe(drift)
}

// Replan re-cuts the profile into as many shards as the live plan has,
// using the same divide-and-conquer Monge DP as Partition, and measures
// the live plan's drift: the ratio of its objective to the fresh
// optimum's under the current (decayed) profile, >= 1. replan reports
// whether the drift exceeds ratio — the caller then swaps the broadcast
// to the fresh plan at the next cycle seam, and otherwise keeps the
// live plan on air (a fresh near-tie is not worth disturbing clients
// for).
//
// A profile with no weight measures drift 1 (every partition costs
// zero, so nothing can be gained by moving cuts).
func (r *Replanner) Replan(p *Profile, live *Plan, ratio float64) (fresh *Plan, drift float64, replan bool, err error) {
	if live.X != p.X {
		return nil, 0, false, fmt.Errorf("sched: live plan and profile index differ")
	}
	if ratio < 1 {
		return nil, 0, false, fmt.Errorf("sched: replan ratio %g below 1", ratio)
	}
	k := live.Shards()
	if k < 1 || k > p.X.NF {
		return nil, 0, false, fmt.Errorf("sched: %d shards for %d frames", k, p.X.NF)
	}
	if p.Total() == 0 {
		r.count(1, false)
		return live, 1, false, nil
	}
	bounds := r.dp.cut(p.Freq, k)
	if err := snapBounds(p.X, bounds); err != nil {
		return nil, 0, false, err
	}
	fresh = planFor(p, bounds)
	liveCost := PlanCost(p.Freq, live.Bounds)
	freshCost := PlanCost(p.Freq, fresh.Bounds)
	// Snapping off duplicate minima can nudge the DP optimum, so guard
	// the ratio against a (theoretical) fresh cost above the live one.
	if freshCost <= 0 || liveCost <= freshCost {
		r.count(1, false)
		return fresh, 1, false, nil
	}
	drift = liveCost / freshCost
	replan = drift > ratio
	r.count(drift, replan)
	return fresh, drift, replan, nil
}

// Replan is the convenience entry point for one-shot re-cuts; loops
// should hold a Replanner to recycle the DP state.
func Replan(p *Profile, live *Plan, ratio float64) (fresh *Plan, drift float64, replan bool, err error) {
	var r Replanner
	return r.Replan(p, live, ratio)
}
