// Traffic conditions: the paper's motivating window-query scenario. A
// broadcast server pushes traffic-sensor readings for a metropolitan
// grid; an in-car client asks for all sensors in the area it is about
// to drive through. The example runs the same window query over all
// three air indexes the paper evaluates — DSI, the STR R-tree, and the
// Hilbert Curve Index — and compares their access latency and tuning
// time.
package main

import (
	"fmt"
	"math/rand"

	"dsi/internal/air"
	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

func main() {
	// 2000 traffic sensors spread over a 256x256 cell road grid.
	ds := dataset.Uniform(2000, 8, 99)

	const capacity = 64
	dsiIdx, err := dsi.Build(ds, dsi.Config{Capacity: capacity, Segments: 2})
	if err != nil {
		panic(err)
	}
	rt, err := air.NewRTreeBroadcast(ds, capacity, broadcast.ObjectBytes)
	if err != nil {
		panic(err)
	}
	hci, err := air.NewHCIBroadcast(ds, capacity, broadcast.ObjectBytes)
	if err != nil {
		panic(err)
	}

	// The area ahead: a 40x40 cell window.
	w := spatial.Rect{MinX: 100, MinY: 60, MaxX: 139, MaxY: 99}
	want := ds.WindowBrute(w)
	fmt.Printf("window %v holds %d sensors\n", w, len(want))

	rng := rand.New(rand.NewSource(5))
	const trials = 40
	fmt.Printf("average cost over %d random tune-in positions:\n\n", trials)

	run := func(name string, cycle int, query func(probe int64) (int, broadcast.Stats)) {
		var lat, tun float64
		for i := 0; i < trials; i++ {
			probe := rng.Int63n(int64(cycle))
			n, st := query(probe)
			if n != len(want) {
				panic(fmt.Sprintf("%s returned %d sensors, want %d", name, n, len(want)))
			}
			lat += float64(st.LatencyBytes())
			tun += float64(st.TuningBytes())
		}
		fmt.Printf("  %-8s latency %9.0f bytes   tuning %8.0f bytes\n", name, lat/trials, tun/trials)
	}

	sess, err := dsi.Open(dsiIdx)
	if err != nil {
		panic(err)
	}
	run("DSI", dsiIdx.CycleSlots(), func(probe int64) (int, broadcast.Stats) {
		sess.Tune(probe, nil)
		ids, st := sess.Window(w)
		return len(ids), st
	})
	run("R-tree", rt.Lay.Prog.Len(), func(probe int64) (int, broadcast.Stats) {
		ids, st := rt.Window(w, probe, nil)
		return len(ids), st
	})
	run("HCI", hci.Lay.Prog.Len(), func(probe int64) (int, broadcast.Stats) {
		ids, st := hci.Window(w, probe, nil)
		return len(ids), st
	})
}
