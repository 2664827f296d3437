package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// TestWindowCorrectUnderLoss verifies that query results are unaffected
// by link errors (paper section 5): DSI recovers by using the next
// frame's table or the object headers themselves.
func TestWindowCorrectUnderLoss(t *testing.T) {
	ds := dataset.Uniform(200, 6, 51)
	for _, cfg := range []Config{{}, {Segments: 2}, {Sizing: SizingPaperTable, Capacity: 64}} {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for _, theta := range []float64{0.2, 0.5, 0.7} {
			for i := 0; i < 6; i++ {
				w := spatial.ClampedWindow(uint32(rng.Intn(64)), uint32(rng.Intn(64)), 15, 64)
				loss := broadcast.NewLossModel(theta, rng.Int63())
				c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), loss)
				got, _ := c.Window(w)
				if !equalInts(got, ds.WindowBrute(w)) {
					t.Fatalf("cfg %+v theta=%v: window mismatch", cfg, theta)
				}
			}
		}
	}
}

func TestKNNCorrectUnderLoss(t *testing.T) {
	ds := dataset.Uniform(200, 6, 53)
	for _, cfg := range []Config{{}, {Segments: 2}} {
		x, _ := Build(ds, cfg)
		rng := rand.New(rand.NewSource(9))
		for _, theta := range []float64{0.2, 0.7} {
			for _, strat := range []Strategy{Conservative, Aggressive} {
				for i := 0; i < 5; i++ {
					q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
					loss := broadcast.NewLossModel(theta, rng.Int63())
					c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), loss)
					got, _ := c.KNN(q, 5, strat)
					want, _ := ds.KNNBrute(q, 5)
					if !equalFloats(knnDistances(ds, q, got), knnDistances(ds, q, want)) {
						t.Fatalf("cfg %+v theta=%v %v: kNN mismatch", cfg, theta, strat)
					}
				}
			}
		}
	}
}

func TestCorrectUnderStrictDataLoss(t *testing.T) {
	// Strict mode: data packets are lost too; clients must retry
	// objects on later cycles. Use a small object so retries converge
	// at moderate theta.
	ds := dataset.Uniform(100, 6, 57)
	x, err := Build(ds, Config{ObjectBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 8; i++ {
		w := spatial.ClampedWindow(uint32(rng.Intn(64)), uint32(rng.Intn(64)), 12, 64)
		loss := broadcast.NewLossModel(0.3, rng.Int63())
		loss.AffectsData = true
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), loss)
		got, _ := c.Window(w)
		if !equalInts(got, ds.WindowBrute(w)) {
			t.Fatalf("strict loss: window mismatch")
		}
	}
}

func TestLossDegradesGracefully(t *testing.T) {
	// Average latency under loss must grow with theta but stay within a
	// small factor of the error-free latency — the paper's resilience
	// claim (Table 1 reports <31% deterioration for DSI at theta=0.7).
	ds := dataset.Uniform(500, 7, 59)
	x, _ := Build(ds, Config{Segments: 2})
	avgLat := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(11))
		var sum float64
		const trials = 40
		for i := 0; i < trials; i++ {
			q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
			var loss *broadcast.LossModel
			if theta > 0 {
				loss = broadcast.NewLossModel(theta, rng.Int63())
			} else {
				rng.Int63() // keep the random stream aligned across thetas
			}
			c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), loss)
			_, st := c.KNN(q, 10, Conservative)
			sum += float64(st.LatencyPackets)
		}
		return sum / trials
	}
	base := avgLat(0)
	at07 := avgLat(0.7)
	if at07 < base {
		t.Errorf("loss cannot reduce latency: base %v, theta=0.7 %v", base, at07)
	}
	if at07 > 2.5*base {
		t.Errorf("DSI deterioration too large: base %v -> %v at theta=0.7", base, at07)
	}
}
