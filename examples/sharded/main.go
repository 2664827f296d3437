// Skew-aware broadcast scheduling end to end: profile a skewed query
// trace, cut the Hilbert-ordered broadcast into per-channel shards with
// the broadcast-disks partitioner, and compare the sharded layout
// against uniform striping at equal aggregate bandwidth.
//
// The workload draws window-query centers Zipf-distributed over the HC
// rank of the objects, so the head of the Hilbert order is hot. The
// sched planner gives those frames their own short-cycle data channels
// (hot shards spin faster); the uniform split baseline broadcasts every
// frame at the same period regardless of demand.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/sched"
	"dsi/internal/spatial"
)

const (
	channels = 4
	queries  = 80
	theta    = 1.0 // Zipf skew of the workload
)

// zipfIndex draws an object rank from cumulative Zipf weights.
func zipfIndex(cum []float64, u float64) int {
	target := u * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func main() {
	ds := dataset.Uniform(2000, 8, 123)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		panic(err)
	}

	cum := make([]float64, ds.N())
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	side := ds.Curve.Side()
	mkWindows := func(seed int64, n int) []spatial.Rect {
		rng := rand.New(rand.NewSource(seed))
		out := make([]spatial.Rect, n)
		for i := range out {
			o := ds.Objects[zipfIndex(cum, rng.Float64())]
			out[i] = spatial.ClampedWindow(o.P.X, o.P.Y, 25, side)
		}
		return out
	}

	// 1. Profile a training trace: each query's HC ranges charge the
	// frames that can serve them.
	prof := sched.NewProfile(x)
	for _, w := range mkWindows(1, 4*queries) {
		prof.AddRanges(ds.Curve.AppendRanges(nil, w.MinX, w.MinY, w.MaxX, w.MaxY), 1)
	}

	// 2. Partition into channels-1 shards (one data channel each).
	plan, err := sched.Partition(prof, channels-1)
	if err != nil {
		panic(err)
	}
	lay, err := plan.Layout(2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload Zipf theta=%.1f over %s\n%v\n", theta, x, plan)
	for s := 0; s < plan.Shards(); s++ {
		fmt.Printf("  shard %d: frames [%4d,%4d)  load %5.1f%%  cycle %6d slots\n",
			s, plan.Bounds[s], plan.Bounds[s+1], 100*plan.Load[s], lay.ChanLen(1+s))
	}

	// 3. Replay an evaluation trace over the sharded layout and the
	// uniform split baseline (same channel count, same capacity).
	split, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: channels, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	if err != nil {
		panic(err)
	}
	eval := mkWindows(2, queries)
	probes := make([]float64, queries)
	prng := rand.New(rand.NewSource(3))
	for i := range probes {
		probes[i] = prng.Float64()
	}
	run := func(lay *dsi.Layout) (lat, tun int64) {
		sess, err := dsi.Open(lay.X, dsi.WithLayout(lay))
		if err != nil {
			panic(err)
		}
		for i, w := range eval {
			sess.Tune(int64(probes[i]*float64(lay.ProbeCycle())), nil)
			got, st := sess.Window(w)
			if len(got) != len(ds.WindowBrute(w)) {
				panic("wrong answer")
			}
			lat += st.LatencyBytes()
			tun += st.TuningBytes()
		}
		return lat / queries, tun / queries
	}
	shardLat, shardTun := run(lay)
	splitLat, splitTun := run(split)

	fmt.Printf("\n%-14s %14s %14s\n", "layout", "latency(B)", "tuning(B)")
	fmt.Printf("%-14s %14d %14d\n", "shard (sched)", shardLat, shardTun)
	fmt.Printf("%-14s %14d %14d\n", "split (even)", splitLat, splitTun)
	fmt.Printf("\nhot-query latency: %.1f%% of uniform striping\n",
		100*float64(shardLat)/float64(splitLat))
}
