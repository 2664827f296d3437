// Restaurant finder: the paper's motivating kNN scenario. A city's
// restaurants (a clustered dataset — restaurants concentrate downtown)
// are broadcast over the wireless channel; a pedestrian asks for the 3
// nearest ones. The example contrasts the paper's three kNN execution
// options: the conservative and aggressive strategies on the original
// HC-order broadcast, and the conservative strategy on the two-segment
// reorganized broadcast — reproducing the tradeoff of section 3.4-3.5.
package main

import (
	"fmt"
	"math/rand"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

func main() {
	// ~800 restaurants clustered around a few districts of a 256x256
	// cell city map.
	ds := dataset.Clustered(dataset.ClusteredConfig{
		N: 800, Order: 8, Clusters: 6, Spread: 0.04, Isolated: 0.1, Seed: 7,
	})

	original, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		panic(err)
	}
	reorganized, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 2})
	if err != nil {
		panic(err)
	}

	user := spatial.Point{X: 150, Y: 90}
	fmt.Printf("user at %v looking for the 3 nearest restaurants\n\n", user)

	// Show the answer once (identical under every strategy).
	c, err := dsi.Open(original)
	if err != nil {
		panic(err)
	}
	ids, _ := c.KNN(user, 3, dsi.Conservative)
	for _, id := range ids {
		o := ds.ByID(id)
		fmt.Printf("  restaurant #%d at %v, %.1f cells away\n", o.ID, o.P, o.P.Dist(user))
	}

	// Average the costs over many tune-in positions: the tradeoff the
	// paper reports (conservative = latency, aggressive = energy,
	// reorganized = both) shows up in the averages.
	type variant struct {
		name  string
		x     *dsi.Index
		strat dsi.Strategy
	}
	variants := []variant{
		{"original + conservative", original, dsi.Conservative},
		{"original + aggressive", original, dsi.Aggressive},
		{"reorganized + conservative", reorganized, dsi.Conservative},
	}
	rng := rand.New(rand.NewSource(1))
	const trials = 50
	fmt.Printf("\naverage cost over %d random tune-in positions:\n", trials)
	for _, v := range variants {
		sess, err := dsi.Open(v.x)
		if err != nil {
			panic(err)
		}
		var lat, tun float64
		for i := 0; i < trials; i++ {
			sess.Tune(rng.Int63n(int64(v.x.CycleSlots())), nil)
			_, st := sess.KNN(user, 3, v.strat)
			lat += float64(st.LatencyBytes())
			tun += float64(st.TuningBytes())
		}
		fmt.Printf("  %-28s latency %7.0f bytes   tuning %6.0f bytes\n",
			v.name, lat/trials, tun/trials)
	}
}
