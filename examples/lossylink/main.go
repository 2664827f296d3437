// Lossy link: the paper's section-5 resilience story. The same kNN
// query runs over DSI and the HCI tree baseline while the link-error
// ratio theta rises from 0 to 0.7. DSI resumes from the next frame's
// index table when a packet is lost, so its costs deteriorate only
// mildly; the tree index must wait for the next occurrence of a lost
// node, so it deteriorates much faster. Results remain correct in every
// case — the loss model changes only the cost.
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
	ds := dataset.Uniform(2000, 8, 123)
	const capacity = 64

	dsiIdx, err := dsi.Build(ds, dsi.Config{Capacity: capacity, Segments: 2})
	if err != nil {
		panic(err)
	}
	hci, err := air.NewHCIBroadcast(ds, capacity, broadcast.ObjectBytes)
	if err != nil {
		panic(err)
	}

	q := spatial.Point{X: 200, Y: 40}
	const k = 5
	want, _ := ds.KNNBrute(q, k)
	fmt.Printf("%dNN at %v (true answer: %d objects)\n\n", k, q, len(want))
	fmt.Printf("%-6s %-6s %14s %14s %12s %12s\n",
		"theta", "index", "latency(B)", "tuning(B)", "lat +%", "tun +%")

	const trials = 30
	avg := func(theta float64, knn func(probe int64, loss *broadcast.LossModel) broadcast.Stats, cycle int) (lat, tun float64) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < trials; i++ {
			probe := rng.Int63n(int64(cycle))
			var loss *broadcast.LossModel
			seed := rng.Int63()
			if theta > 0 {
				loss = broadcast.NewLossModel(theta, seed)
			}
			st := knn(probe, loss)
			lat += float64(st.LatencyBytes())
			tun += float64(st.TuningBytes())
		}
		return lat / trials, tun / trials
	}

	sess, err := dsi.Open(dsiIdx)
	if err != nil {
		panic(err)
	}
	dsiKNN := func(probe int64, loss *broadcast.LossModel) broadcast.Stats {
		sess.Tune(probe, loss)
		ids, st := sess.KNN(q, k, dsi.Conservative)
		mustMatch(ids, want)
		return st
	}
	hciKNN := func(probe int64, loss *broadcast.LossModel) broadcast.Stats {
		ids, st := hci.KNN(q, k, probe, loss)
		mustMatch(ids, want)
		return st
	}

	baseDSILat, baseDSITun := avg(0, dsiKNN, dsiIdx.CycleSlots())
	baseHCILat, baseHCITun := avg(0, hciKNN, hci.Lay.Prog.Len())
	pct := func(now, was float64) string { return fmt.Sprintf("%+.1f%%", (now-was)/was*100) }
	for _, theta := range []float64{0, 0.2, 0.5, 0.7} {
		dl, dt := avg(theta, dsiKNN, dsiIdx.CycleSlots())
		hl, ht := avg(theta, hciKNN, hci.Lay.Prog.Len())
		fmt.Printf("%-6.1f %-6s %14.0f %14.0f %12s %12s\n",
			theta, "DSI", dl, dt, pct(dl, baseDSILat), pct(dt, baseDSITun))
		fmt.Printf("%-6s %-6s %14.0f %14.0f %12s %12s\n",
			"", "HCI", hl, ht, pct(hl, baseHCILat), pct(ht, baseHCITun))
	}
}

// mustMatch panics unless both answers contain the same objects (the
// example's queries have no distance ties).
func mustMatch(got, want []int) {
	if len(got) != len(want) {
		panic("wrong answer size under loss")
	}
	seen := make(map[int]bool, len(want))
	for _, id := range want {
		seen[id] = true
	}
	for _, id := range got {
		if !seen[id] {
			panic("wrong answer under loss")
		}
	}
}
