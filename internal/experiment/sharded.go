package experiment

import (
	"fmt"
	"math"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/sched"
	"dsi/internal/spatial"
)

// ShardedThetas is the Zipf skew sweep of the sharded experiment;
// theta = 0 is the uniform workload.
var ShardedThetas = []float64{0, 0.4, 0.8, 1.2}

// ShardedChannels is its channel-count sweep (one index channel plus
// N-1 data shards each).
var ShardedChannels = []int{4, 8}

// ShardedTrainFactor scales the training trace the profiler sees
// relative to the evaluation workload.
const ShardedTrainFactor = 4

// zipfRanks precomputes the cumulative Zipf(theta) weights over n
// ranks: rank i (0-based) has weight (i+1)^-theta, so low HC ranks are
// hot. Sampling is by inverse CDF from a uniform draw, which keeps the
// workload deterministic and replayable.
type zipfRanks struct {
	cum []float64
}

func newZipfRanks(n int, theta float64) *zipfRanks {
	z := &zipfRanks{cum: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -theta)
		z.cum[i] = total
	}
	return z
}

// rank maps a uniform draw u in [0,1) to a rank.
func (z *zipfRanks) rank(u float64) int {
	target := u * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfWindows generates window queries whose centers follow a
// Zipf(theta) distribution over the objects in HC rank order: the head
// of the Hilbert order is the hot span. The same window side as the
// uniform workload keeps per-query selectivity comparable across
// thetas.
func (wl *Workload) zipfWindows(theta, ratio float64, seedOffset int64, n int) []windowQuery {
	return wl.zipfShiftWindows(theta, ratio, seedOffset, n, 0)
}

// zipfShiftWindows is zipfWindows with the hot spot moved: Zipf rank r
// maps to the object at HC rank (r+shift) mod N, so shift rotates the
// head of the popularity distribution along the Hilbert order — the
// drifting-workload generator. The random draws are identical to
// zipfWindows (shift only relabels ranks), so shift 0 reproduces it bit
// for bit.
func (wl *Workload) zipfShiftWindows(theta, ratio float64, seedOffset int64, n, shift int) []windowQuery {
	rng := newWorkloadRNG(wl.Seed + seedOffset)
	z := newZipfRanks(wl.DS.N(), theta)
	side := wl.DS.Curve.Side()
	win := uint32(float64(side) * ratio)
	if win == 0 {
		win = 1
	}
	out := make([]windowQuery, n)
	for i := range out {
		o := wl.DS.Objects[(z.rank(rng.Float64())+shift)%wl.DS.N()]
		out[i] = windowQuery{
			w:     spatial.ClampedWindow(o.P.X, o.P.Y, win, side),
			uProb: rng.Float64(),
			seed:  int64(rng.Uint64() >> 1),
		}
	}
	return out
}

// shardProfile runs the training trace through the workload profiler:
// every training window decomposes to the HC ranges a client would
// target, and each range charges the frames that can serve it.
func shardProfile(x *dsi.Index, train []windowQuery) *sched.Profile {
	prof := sched.NewProfile(x)
	curve := x.DS.Curve
	var ranges []hilbert.Range
	for _, q := range train {
		ranges = curve.AppendRanges(ranges[:0], q.w.MinX, q.w.MinY, q.w.MaxX, q.w.MaxY)
		prof.AddRanges(ranges, 1)
	}
	return prof
}

// shardedPoint holds one (theta, channels) cell of the sweep.
type shardedPoint struct {
	shard, split Metrics
	wait         float64 // planned expected data wait (slots) of the shard plan
	uniformWait  float64
}

// shardedCell builds the skew-aware plan from a training trace and
// replays the evaluation workload against the sharded layout and the
// uniform split baseline at equal aggregate bandwidth (same channel
// count, same capacity, same total slots per cycle). Standalone entry
// point (tests, benchmarks); Sharded hoists the theta- and
// channel-independent work out of its sweep.
func shardedCell(ds *dataset.Dataset, p Params, theta float64, channels int) shardedPoint {
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		panic(err)
	}
	wl := p.workload(ds)
	return shardedPointAt(x, wl, shardProfileFor(x, wl, theta), theta, channels)
}

// shardProfileFor profiles theta's training trace (disjoint seed range
// from the evaluation workload).
func shardProfileFor(x *dsi.Index, wl *Workload, theta float64) *sched.Profile {
	train := wl.zipfWindows(theta, DefaultWinSideRatio, 7000, wl.Queries*ShardedTrainFactor)
	return shardProfile(x, train)
}

// shardedPointAt evaluates one (theta, channels) cell over a shared
// built index and profile.
func shardedPointAt(x *dsi.Index, wl *Workload, prof *sched.Profile, theta float64, channels int) shardedPoint {
	plan, err := sched.Partition(prof, channels-1)
	if err != nil {
		panic(err)
	}
	lay, err := plan.Layout(DefaultSwitchSlots)
	if err != nil {
		panic(err)
	}
	uniform, err := sched.Uniform(x, channels-1)
	if err != nil {
		panic(err)
	}
	uniformLoads := make([]float64, uniform.Shards())
	if t := prof.Total(); t > 0 {
		for s := 0; s < uniform.Shards(); s++ {
			for f := uniform.Bounds[s]; f < uniform.Bounds[s+1]; f++ {
				uniformLoads[s] += prof.Freq[f]
			}
			uniformLoads[s] /= t
		}
	}
	uniform.Load = uniformLoads

	shardSys := newSimSystem("Shard", lay, dsi.Conservative)
	// The uniform baseline shares the built index: only the placement
	// differs (balanced blocks instead of the plan's cuts).
	splitLay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: channels, Scheduler: dsi.SchedSplit, SwitchSlots: DefaultSwitchSlots})
	if err != nil {
		panic(err)
	}
	splitSys := newSimSystem("Split", splitLay, dsi.Conservative)

	eval := wl.zipfWindows(theta, DefaultWinSideRatio, 0, wl.Queries)
	return shardedPoint{
		shard:       meanOf(wl.windowStats(shardSys, eval, (*Workload).loss)),
		split:       meanOf(wl.windowStats(splitSys, eval, (*Workload).loss)),
		wait:        plan.ExpectedWait(lay.DataPackets),
		uniformWait: uniform.ExpectedWait(lay.DataPackets),
	}
}

// Sharded is the skew-aware broadcast scheduler experiment: window
// latency and tuning versus Zipf skew theta, for the sched-planned
// sharded layout against uniform striping (the balanced split
// scheduler) at equal aggregate bandwidth, per channel count. The
// profiler trains on a trace drawn from the same distribution as the
// evaluation workload but disjoint from it.
//
// Expected shape: at theta = 0 the plan degenerates to near-uniform
// shards and the two systems roughly tie; as theta grows the planner
// gives the hot head of the Hilbert order its own short-cycle shards
// and latency drops strictly below the uniform baseline, while the
// baseline barely moves (its per-frame period is skew-blind).
func Sharded(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	// The built index is cell-independent and the profile depends only
	// on theta, so both are hoisted out of the sweep (the Index and the
	// finished profiles are immutable, hence safe to share across the
	// parallel cells).
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		panic(err)
	}
	wl := p.workload(ds)
	profs := make(map[float64]*sched.Profile, len(ShardedThetas))
	for _, th := range ShardedThetas {
		profs[th] = shardProfileFor(x, wl, th)
	}
	var figs []Figure
	type cell struct {
		n     int
		theta float64
	}
	var cells []cell
	for _, n := range ShardedChannels {
		for _, th := range ShardedThetas {
			cells = append(cells, cell{n, th})
		}
	}
	pts := sweep(len(cells), func(i int) shardedPoint {
		return shardedPointAt(x, p.workload(ds), profs[cells[i].theta], cells[i].theta, cells[i].n)
	})
	for ni, n := range ShardedChannels {
		lat := Figure{ID: fmt.Sprintf("shard-lat-%d", n),
			Title:  fmt.Sprintf("Skew-aware sharding (%d channels): window access latency", n),
			XLabel: "Zipf theta", YLabel: "access latency (bytes)"}
		tun := Figure{ID: fmt.Sprintf("shard-tun-%d", n),
			Title:  fmt.Sprintf("Skew-aware sharding (%d channels): window tuning time", n),
			XLabel: "Zipf theta", YLabel: "tuning time (bytes)"}
		for ti, th := range ShardedThetas {
			pt := pts[ni*len(ShardedThetas)+ti]
			lat.X = append(lat.X, th)
			tun.X = append(tun.X, th)
			lat.AddPoint("Shard", pt.shard.LatencyBytes)
			lat.AddPoint("Split", pt.split.LatencyBytes)
			tun.AddPoint("Shard", pt.shard.TuningBytes)
			tun.AddPoint("Split", pt.split.TuningBytes)
		}
		figs = append(figs, lat, tun)
	}
	return Result{Figures: figs}
}
