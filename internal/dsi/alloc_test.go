package dsi

import (
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// Steady-state allocation budgets for warm-client queries. The engine
// holds a handful of small closures and pooled buffers; nothing may
// scale with the dataset (the seed code allocated six dataset-sized
// slices per query plus per-visit index tables).
const (
	windowAllocBudget = 8
	knnAllocBudget    = 16
)

// TestWindowAllocsSteadyState asserts a warm client answers window
// queries within the fixed allocation budget.
func TestWindowAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation budgets only hold in normal builds")
	}
	ds := dataset.Uniform(2000, 8, 31)
	x, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := openClient(x.single, 0, nil)
	w := spatial.ClampedWindow(100, 140, 25, ds.Curve.Side())
	var buf []int
	// Warm up: grow every reusable buffer to steady state.
	for i := 0; i < 3; i++ {
		c.Reset(int64(i*37), nil)
		buf, _ = c.WindowAppend(buf[:0], w)
	}
	probe := int64(0)
	avg := testing.AllocsPerRun(20, func() {
		c.Reset(probe, nil)
		buf, _ = c.WindowAppend(buf[:0], w)
		probe = (probe + 61) % int64(x.Prog.Len())
	})
	if avg > windowAllocBudget {
		t.Errorf("warm window query allocates %.1f/run, budget %d", avg, windowAllocBudget)
	}
	if len(buf) == 0 {
		t.Fatal("window query returned nothing")
	}
}

// TestKNNAllocsSteadyState asserts a warm client answers 10NN queries
// within the fixed allocation budget.
func TestKNNAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation budgets only hold in normal builds")
	}
	ds := dataset.Uniform(2000, 8, 33)
	x, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := openClient(x.single, 0, nil)
	q := spatial.Point{X: 77, Y: 190}
	var buf []int
	for i := 0; i < 3; i++ {
		c.Reset(int64(i*37), nil)
		buf, _ = c.KNNAppend(buf[:0], q, 10, Conservative)
	}
	probe := int64(0)
	avg := testing.AllocsPerRun(20, func() {
		c.Reset(probe, nil)
		buf, _ = c.KNNAppend(buf[:0], q, 10, Conservative)
		probe = (probe + 61) % int64(x.Prog.Len())
	})
	if avg > knnAllocBudget {
		t.Errorf("warm 10NN query allocates %.1f/run, budget %d", avg, knnAllocBudget)
	}
	if len(buf) != 10 {
		t.Fatalf("10NN returned %d ids", len(buf))
	}
}
