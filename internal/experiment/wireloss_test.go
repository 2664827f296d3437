package experiment

import (
	"testing"

	"dsi/internal/dsi"
)

// TestWireLossSimWireBitIdentical is the acceptance regression of the
// byte-level receiver: over a static transmitter the Wire arm matches
// the Sim arm exactly — results verified against brute force, metrics
// equal to the bit — at every loss rate and at two parallelism levels.
func TestWireLossSimWireBitIdentical(t *testing.T) {
	p := Params{N: 400, Order: 7, Seed: 17, Queries: 12, Verify: true}
	x, lay0, _, mt, _ := wireLossBed(p)
	ds := x.DS

	sim := newSimSystem("Sim", lay0, dsi.Conservative)
	wire := newWireSystem("Wire", lay0, mt, dsi.Conservative)

	defer SetParallelism(Parallelism())
	for _, theta := range []float64{0, 0.25} {
		wl := p.workload(ds)
		wl.Theta = theta
		wl.BurstLen = Table1GEBurstLen

		var ref Metrics
		for pi, workers := range []int{1, 4} {
			SetParallelism(workers)
			simM := wl.RunWindow(sim, DefaultWinSideRatio)
			wireM := wl.RunWindow(wire, DefaultWinSideRatio)
			if simM != wireM {
				t.Errorf("theta=%v workers=%d: wire %v != sim %v", theta, workers, wireM, simM)
			}
			simK := wl.RunKNN(sim, 5)
			wireK := wl.RunKNN(wire, 5)
			if simK != wireK {
				t.Errorf("theta=%v workers=%d: wire kNN %v != sim %v", theta, workers, wireK, simK)
			}
			if pi == 0 {
				ref = wireM
			} else if wireM != ref {
				t.Errorf("theta=%v: wire metrics differ across parallelism: %v vs %v", theta, wireM, ref)
			}
		}
	}
}

// TestWireLossStaleConverges runs the stale-tune-in arm with Verify on:
// every query must fetch the committed directory over the lossy air
// and still answer exactly (the replay cross-checks brute force).
func TestWireLossStaleConverges(t *testing.T) {
	p := Params{N: 400, Order: 7, Seed: 19, Queries: 10, Verify: true}
	x, lay0, lay1, _, rb := wireLossBed(p)
	ds := x.DS
	stale := &staleWireSystem{label: "Wire stale", rx: wireRx{lay: lay0, src: rb}, onAir: lay1}

	for _, theta := range []float64{0, 0.25} {
		wl := p.workload(ds)
		wl.Theta = theta
		wl.BurstLen = Table1GEBurstLen
		m := wl.RunWindow(stale, DefaultWinSideRatio)
		if m.LatencyBytes <= 0 || m.TuningBytes <= 0 {
			t.Fatalf("theta=%v: degenerate stale metrics %v", theta, m)
		}
	}
}

// TestWireLossExperimentRuns smoke-runs the registered experiment with
// verification on.
func TestWireLossExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("wireloss sweep is minutes-long at full size")
	}
	res := WireLoss(Params{N: 300, Order: 7, Seed: 23, Queries: 6, Verify: true})
	if len(res.Figures) != 2 {
		t.Fatalf("wireloss produced %d figures, want 2", len(res.Figures))
	}
	for _, f := range res.Figures {
		if len(f.Series) != 3 {
			t.Fatalf("figure %s has %d series, want 3", f.ID, len(f.Series))
		}
	}
	// The Sim and Wire series must coincide exactly at every theta.
	lat := res.Figures[0]
	var simS, wireS []float64
	for _, s := range lat.Series {
		switch s.Name {
		case "Sim":
			simS = s.Y
		case "Wire":
			wireS = s.Y
		}
	}
	for i := range simS {
		if simS[i] != wireS[i] {
			t.Errorf("theta=%v: wire latency %v != sim %v", lat.X[i], wireS[i], simS[i])
		}
	}
}

// BenchmarkWireLoss is the CI smoke benchmark of the wireloss sweep.
func BenchmarkWireLoss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WireLoss(Params{N: 300, Order: 7, Seed: 29, Queries: 4, Verify: true})
	}
}
