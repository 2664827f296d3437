package dsi

import (
	"math"
	"runtime"
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

// TestNavigationAllocsZero pins the warm navigation path at zero
// allocations per query: a warm session answering window and 10NN
// queries on the single-channel layout (positional chooser) and on an
// index-split one (timed chooser) allocates nothing — the pending sets
// keep their bitmaps, the patch queue its backing array.
func TestNavigationAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation budgets only hold in normal builds")
	}
	ds := dataset.Uniform(2000, 8, 31)
	x, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	split := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	w := spatial.ClampedWindow(100, 140, 25, ds.Curve.Side())
	q := spatial.Point{X: 77, Y: 190}
	for _, lay := range []*Layout{x.single, split} {
		for _, kind := range []string{"window", "10NN"} {
			c := openClient(lay, 0, nil)
			var buf []int
			cycle := int64(lay.ProbeCycle())
			probe := int64(0)
			query := func() {
				c.Reset(probe, nil)
				if kind == "window" {
					buf, _ = c.WindowAppend(buf[:0], w)
				} else {
					buf, _ = c.KNNAppend(buf[:0], q, 10, Conservative)
				}
				probe = (probe + 61) % cycle
			}
			// Warm up over the probes the measured runs use: every
			// reusable buffer grows to its steady state.
			for i := 0; i < 25; i++ {
				query()
			}
			probe = 0
			if avg := testing.AllocsPerRun(20, query); avg != 0 {
				t.Errorf("%v x%d: warm %s query allocates %.1f/run, want 0", lay.Sched, lay.Channels(), kind, avg)
			}
			if len(buf) == 0 {
				t.Fatalf("%s query returned nothing", kind)
			}
		}
	}
}

// TestSessionStateIsNotFrameSized holds what one session costs in
// memory against the figure measured before the pending set existed
// (bytes allocated by Open, and by Open plus the first window query,
// over the replay benchmark's index: 10 000 objects, order 8). A
// session is the dataset-sized arrays of its knowledge base and little
// else, and the replay workloads open one per worker per run — so a new
// per-frame or per-object array would show there as allocation per
// query. The pending set keeps its per-frame state in bits of an array
// that already existed; what it adds is two bitmaps per span, grown to
// the largest index they hold. The figures are the bitmap sets' (the
// bucketed sets they replaced cost 288 968 and 307 528 bytes).
func TestSessionStateIsNotFrameSized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const (
		openBytes       = 287888 // 287 856 single, 287 888 split
		firstQueryBytes = 305120 // 305 088 single, 305 120 split
	)
	ds := dataset.Uniform(10000, 8, 1)
	x, err := Build(ds, Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	split := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	w := spatial.ClampedWindow(100, 140, 25, ds.Curve.Side())
	for _, lay := range []*Layout{x.single, split} {
		// TotalAlloc is process-wide: whatever else allocates in between
		// only adds, so the smallest of a few readings is the session's.
		open, first := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for try := 0; try < 5; try++ {
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s, err := Open(x, WithLayout(lay))
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			s.Window(w)
			runtime.ReadMemStats(&m2)
			open, first = min(open, m1.TotalAlloc-m0.TotalAlloc), min(first, m2.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("%v x%d: Open allocates %d bytes, Open and the first query %d", lay.Sched, lay.Channels(), open, first)
		if open > openBytes+openBytes/100 {
			t.Errorf("%v x%d: Open allocates %d bytes, more than 1 %% above %d", lay.Sched, lay.Channels(), open, openBytes)
		}
		if first > firstQueryBytes+firstQueryBytes/100 {
			t.Errorf("%v x%d: Open and the first query allocate %d bytes, more than 1 %% above %d", lay.Sched, lay.Channels(), first, firstQueryBytes)
		}
	}
}
