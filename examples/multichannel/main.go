// Multi-channel broadcast: the channel abstraction layer end to end.
// The same window query workload runs over one DSI broadcast placed on
// 1, 2, 4 and 8 parallel channels with the index/data split scheduler
// (channel 0 carries only index tables; the rest carry object payloads
// in contiguous blocks). Separating index from data shortens the data
// cycle and makes tables recur a frame-length factor faster, so access
// latency improves monotonically with the channel count — at the price
// of channel switches, which the tuner charges in latency and counts.
package main

import (
	"fmt"
	"math/rand"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

func main() {
	ds := dataset.Uniform(2000, 8, 123)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 2})
	if err != nil {
		panic(err)
	}

	const queries = 60
	rng := rand.New(rand.NewSource(7))
	type query struct {
		w spatial.Rect
		u float64
	}
	qs := make([]query, queries)
	side := ds.Curve.Side()
	for i := range qs {
		qs[i] = query{
			w: spatial.ClampedWindow(uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side))), 25, side),
			u: rng.Float64(),
		}
	}

	fmt.Printf("window queries over %s, split scheduler, switch cost 2 slots\n\n", x)
	fmt.Printf("%-9s %14s %14s %10s\n", "channels", "latency(B)", "tuning(B)", "switches")
	for _, n := range []int{1, 2, 4, 8} {
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: n, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
		if err != nil {
			panic(err)
		}
		sess, err := dsi.Open(x, dsi.WithLayout(lay))
		if err != nil {
			panic(err)
		}
		var lat, tun, sw int64
		for _, q := range qs {
			sess.Tune(int64(q.u*float64(lay.ProbeCycle())), nil)
			got, st := sess.Window(q.w)
			if len(got) != len(ds.WindowBrute(q.w)) {
				panic("wrong answer")
			}
			lat += st.LatencyBytes()
			tun += st.TuningBytes()
			sw += st.Switches
		}
		fmt.Printf("%-9d %14d %14d %10.1f\n",
			n, lat/queries, tun/queries, float64(sw)/queries)
	}
}
