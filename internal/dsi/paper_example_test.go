package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// paperDataset reconstructs the paper's running example: eight objects
// at HC values {6, 11, 17, 27, 32, 40, 51, 61} on the order-3 curve of
// Figure 2 (O6, O11, ..., O61).
func paperDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	c := dataset.Uniform(1, 3, 1).Curve // any order-3 curve
	hcs := []uint64{6, 11, 17, 27, 32, 40, 51, 61}
	objs := make([]dataset.Object, len(hcs))
	for i, hc := range hcs {
		x, y := c.Decode(hc)
		objs[i] = dataset.Object{ID: i, P: spatial.Point{X: x, Y: y}, HC: hc}
	}
	return &dataset.Dataset{Curve: c, Objects: objs, Name: "paper-example"}
}

func TestPaperRunningExampleKNN(t *testing.T) {
	// Paper section 3.4 (Figures 6 and 7): a client at the spot with HC
	// value 33 asks for its 3 nearest neighbors; the answer is
	// O32, O40 and O51 under every strategy and broadcast organization.
	ds := paperDataset(t)
	qx, qy := ds.Curve.Decode(33)
	q := spatial.Point{X: qx, Y: qy}

	wantHC := map[uint64]bool{32: true, 40: true, 51: true}
	check := func(name string, ids []int) {
		t.Helper()
		if len(ids) != 3 {
			t.Fatalf("%s: got %d neighbors", name, len(ids))
		}
		for _, id := range ids {
			if !wantHC[ds.Objects[id].HC] {
				t.Fatalf("%s: returned O%d, want {O32,O40,O51}", name, ds.Objects[id].HC)
			}
		}
	}

	// Ground truth first.
	brute, _ := ds.KNNBrute(q, 3)
	check("brute force", brute)

	for _, cfg := range []Config{{}, {Segments: 2}} {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Conservative, Aggressive} {
			// The paper's client tunes in just before the frame of O6;
			// also sweep every other frame boundary.
			for pos := 0; pos < x.NF; pos++ {
				c := openClient(x.single, int64(x.FrameStartSlot(pos)), nil)
				ids, _ := c.KNN(q, 3, strat)
				check(x.String()+"/"+strat.String(), ids)
			}
		}
	}
}

func TestPaperRunningExampleEEF(t *testing.T) {
	// Section 3.2's example: the index table of O6's frame points at
	// the frames of O11 (next), O17 (second) and O32 (fourth) on the
	// original broadcast with nF = 8 — reproduced with the unit-factor
	// sizing whose base stays 2.
	ds := paperDataset(t)
	x, err := Build(ds, Config{Sizing: SizingUnitFactor})
	if err != nil {
		t.Fatal(err)
	}
	if x.NF != 8 || x.E != 3 {
		t.Fatalf("nF=%d E=%d, want 8/3 (the paper's running example)", x.NF, x.E)
	}
	tab := x.TableAt(0) // the frame of O6
	wantHC := []uint64{11, 17, 32}
	for i, e := range tab.Entries {
		if e.MinHC != wantHC[i] {
			t.Fatalf("entry %d points at HC %d, want %d (paper Figure 4)", i, e.MinHC, wantHC[i])
		}
	}
	// EEF from anywhere must reach each object's frame.
	for _, o := range ds.Objects {
		c := openClient(x.single, 3, nil)
		frame, exists, _ := c.EEF(o.HC)
		if !exists || frame != o.ID {
			t.Fatalf("EEF(O%d) = (frame %d, %v)", o.HC, frame, exists)
		}
	}
	// O28 and O31 do not exist (the aggressive example rules them out).
	for _, hc := range []uint64{28, 31} {
		c := openClient(x.single, 5, nil)
		if _, exists, _ := c.EEF(hc); exists {
			t.Fatalf("EEF(O%d) found a nonexistent object", hc)
		}
	}
}

func TestPaperReorganizedBroadcastOrder(t *testing.T) {
	// Figure 7: the two-segment reorganization broadcasts
	// O6 O32 O11 O40 O17 O51 O27 O61.
	ds := paperDataset(t)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 32, 11, 40, 17, 51, 27, 61}
	for pos, hc := range want {
		if got := x.MinHC(x.PosToFrame(pos)); got != hc {
			t.Fatalf("position %d broadcasts O%d, want O%d", pos, got, hc)
		}
	}
}

// TestTorture runs a large randomized cross-check of every query type
// against brute force over random datasets, configurations, probe
// positions and loss processes. Skipped with -short.
func TestTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in short mode")
	}
	rng := rand.New(rand.NewSource(20260612))
	for round := 0; round < 25; round++ {
		n := rng.Intn(400) + 20
		order := uint(rng.Intn(3) + 5) // 5..7
		ds := dataset.Uniform(n, order, rng.Int63())
		side := int(ds.Curve.Side())
		cfg := Config{
			Capacity: []int{32, 64, 128, 256, 512}[rng.Intn(5)],
			Segments: []int{1, 1, 2, 2, 3, 4}[rng.Intn(6)],
			Sizing:   []Sizing{SizingAuto, SizingAuto, SizingUnitFactor, SizingPaperTable}[rng.Intn(4)],
		}
		if cfg.Sizing == SizingPaperTable && cfg.Capacity < 64 {
			cfg.Capacity = 64
		}
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatalf("round %d: %v (cfg %+v)", round, err, cfg)
		}
		theta := []float64{0, 0, 0, 0.3, 0.6}[rng.Intn(5)]
		for q := 0; q < 6; q++ {
			loss := lossFor(theta, rng.Int63())
			probe := rng.Int63n(int64(x.CycleSlots()))
			switch rng.Intn(3) {
			case 0:
				w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)),
					uint32(rng.Intn(side/3)+1), uint32(side))
				got, st := openClient(x.single, probe, loss).Window(w)
				if !equalInts(got, ds.WindowBrute(w)) {
					t.Fatalf("round %d: window mismatch (cfg %+v theta %v)", round, cfg, theta)
				}
				checkStats(t, st)
			case 1:
				pt := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
				k := rng.Intn(8) + 1
				strat := Strategy(rng.Intn(2))
				got, st := openClient(x.single, probe, loss).KNN(pt, k, strat)
				want, _ := ds.KNNBrute(pt, k)
				if !equalFloats(knnDistances(ds, pt, got), knnDistances(ds, pt, want)) {
					t.Fatalf("round %d: kNN mismatch (cfg %+v theta %v)", round, cfg, theta)
				}
				checkStats(t, st)
			default:
				o := ds.Objects[rng.Intn(n)]
				id, found, st := openClient(x.single, probe, loss).Point(o.P)
				if !found || id != o.ID {
					t.Fatalf("round %d: point query missed (cfg %+v theta %v)", round, cfg, theta)
				}
				checkStats(t, st)
			}
		}
	}
}

func checkStats(t *testing.T, st interface {
	LatencyBytes() int64
	TuningBytes() int64
}) {
	t.Helper()
	if st.TuningBytes() > st.LatencyBytes() || st.LatencyBytes() <= 0 {
		t.Fatalf("implausible stats: latency %d, tuning %d", st.LatencyBytes(), st.TuningBytes())
	}
}

// lossFor returns a loss model for theta, or nil for a clean channel.
func lossFor(theta float64, seed int64) *broadcast.LossModel {
	if theta == 0 {
		return nil
	}
	return broadcast.NewLossModel(theta, seed)
}
