// Online re-planning end to end: a broadcast whose workload hot spot
// migrates mid-run. The transmitter profiles the live queries with
// exponentially decayed counts, re-cuts the shard plan when the live
// schedule drifts too far from the fresh optimum, and swaps the shard
// directory at a cycle seam; the client running at the seam re-syncs
// mid-query — keeping everything it already learned — and later clients
// tune straight into the new directory. A static arm keeps the original
// plan on air for comparison.
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
	channels  = 4
	queries   = 60  // per workload phase
	theta     = 1.2 // Zipf skew
	ratio     = 1.2 // replan trigger: live cost > ratio * fresh optimum
	checkEach = 5
)

func zipfIndex(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	target := u * cum[len(cum)-1]
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
	mkWindows := func(seed int64, n, shift int) []spatial.Rect {
		rng := rand.New(rand.NewSource(seed))
		out := make([]spatial.Rect, n)
		for i := range out {
			o := ds.Objects[(zipfIndex(cum, rng.Float64())+shift)%ds.N()]
			out[i] = spatial.ClampedWindow(o.P.X, o.P.Y, 25, side)
		}
		return out
	}

	// Train the initial plan on the pre-drift distribution.
	prof := sched.NewProfile(x)
	for _, w := range mkWindows(1, 4*queries, 0) {
		prof.AddRanges(ds.Curve.AppendRanges(nil, w.MinX, w.MinY, w.MaxX, w.MaxY), 1)
	}
	plan, err := sched.Partition(prof, channels-1)
	if err != nil {
		panic(err)
	}
	staticLay, err := plan.Layout(2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("initial %v\n", plan)

	// The live run: pre-drift phase, then the hot spot jumps half the
	// HC rank space. The online loop decides when to swap.
	eval := append(mkWindows(2, queries, 0), mkWindows(3, queries, ds.N()/2)...)
	op := sched.NewOnlineProfiler(x, float64(queries)/2)
	op.Seed(prof, 1)
	var rp sched.Replanner
	snap := sched.NewProfile(x)
	live, liveLay := plan, staticLay
	var pendingLay *dsi.Layout

	prng := rand.New(rand.NewSource(4))
	probes := make([]float64, len(eval))
	for i := range probes {
		probes[i] = prng.Float64()
	}

	run := func(s *dsi.Session, lay *dsi.Layout, i int, w spatial.Rect) int64 {
		s.Tune(int64(probes[i]*float64(lay.ProbeCycle())), nil)
		if pendingLay != nil && lay != pendingLay {
			// The seam falls inside this query: the client tunes in on
			// the old directory and re-syncs when the bump reaches it.
			if err := s.ScheduleResync(pendingLay, s.Stats().ProbeSlot+int64(lay.ChanLen(0))); err != nil {
				panic(err)
			}
		}
		got, st := s.Window(w)
		if len(got) != len(ds.WindowBrute(w)) {
			panic("wrong answer")
		}
		return st.LatencyBytes()
	}

	mustOpen := func(lay *dsi.Layout) *dsi.Session {
		s, err := dsi.Open(lay.X, dsi.WithLayout(lay))
		if err != nil {
			panic(err)
		}
		return s
	}
	var replanLat, staticLat [2]int64 // per phase
	cs := mustOpen(staticLay)
	for i, w := range eval {
		phase := i / queries
		cr := mustOpen(liveLay)
		replanLat[phase] += run(cr, liveLay, i, w)
		if pendingLay != nil {
			liveLay = pendingLay // committed at the seam this query crossed
			pendingLay = nil
		}
		staticLat[phase] += run(cs, staticLay, i, w)

		op.Observe(ds.Curve.AppendRanges(nil, w.MinX, w.MinY, w.MaxX, w.MaxY), 1)
		if (i+1)%checkEach == 0 && pendingLay == nil {
			fresh, drift, trig, err := rp.Replan(op.Snapshot(snap), live, ratio)
			if err != nil {
				panic(err)
			}
			if trig {
				lay, err := fresh.Layout(2)
				if err != nil {
					panic(err)
				}
				fmt.Printf("query %3d: drift %.2f > %.2f -> swap to %v\n", i+1, drift, ratio, fresh)
				live, pendingLay = fresh, lay
			}
		}
	}

	fmt.Printf("\n%-22s %14s %14s\n", "phase", "static", "replan")
	for phase, name := range []string{"before drift", "after drift"} {
		fmt.Printf("%-22s %13dB %13dB\n", name,
			staticLat[phase]/queries, replanLat[phase]/queries)
	}
}
