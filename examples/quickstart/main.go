// Quickstart: build a DSI broadcast over a small spatial dataset, tune
// in as a mobile client, and run the two classic location-based queries
// (a window query and a kNN query), printing results and the two cost
// metrics the paper evaluates: access latency and tuning time.
package main

import (
	"fmt"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

func main() {
	// 1000 points of interest on a 128x128 Hilbert grid.
	ds := dataset.Uniform(1000, 7, 42)

	// Build the broadcast: 64-byte packets, the paper's two-segment
	// broadcast reorganization.
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("broadcast:", x)

	// One session answers any number of queries; Tune re-tunes it
	// between them. A session tunes in somewhere in the middle of the
	// cycle and asks for everything in a 20x20 window.
	w := spatial.Rect{MinX: 30, MinY: 30, MaxX: 49, MaxY: 49}
	sess, err := dsi.Open(x)
	if err != nil {
		panic(err)
	}
	sess.Tune(int64(x.CycleSlots()/3), nil)
	ids, st := sess.Window(w)
	fmt.Printf("\nwindow %v -> %d objects\n", w, len(ids))
	for i, id := range ids {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(ids)-5)
			break
		}
		fmt.Printf("  %v\n", ds.ByID(id).P)
	}
	fmt.Printf("cost: latency %d bytes, tuning %d bytes\n", st.LatencyBytes(), st.TuningBytes())

	// The same tune-in position, now asking for the 5 nearest objects.
	q := spatial.Point{X: 64, Y: 64}
	sess.Tune(int64(x.CycleSlots()/3), nil)
	ids, st = sess.KNN(q, 5, dsi.Conservative)
	fmt.Printf("\n5NN at %v:\n", q)
	for _, id := range ids {
		o := ds.ByID(id)
		fmt.Printf("  %v at distance %.2f\n", o.P, o.P.Dist(q))
	}
	fmt.Printf("cost: latency %d bytes, tuning %d bytes\n", st.LatencyBytes(), st.TuningBytes())
}
