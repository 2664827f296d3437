package dsi

import (
	"fmt"
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
		c.Tune(int64(i*37), nil)
		buf, _ = c.WindowAppend(buf[:0], w)
	}
	probe := int64(0)
	avg := testing.AllocsPerRun(20, func() {
		c.Tune(probe, nil)
		buf, _ = c.WindowAppend(buf[:0], w)
		probe = (probe + 61) % int64(x.CycleSlots())
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
		c.Tune(int64(i*37), nil)
		buf, _ = c.KNNAppend(buf[:0], q, 10, Conservative)
	}
	probe := int64(0)
	avg := testing.AllocsPerRun(20, func() {
		c.Tune(probe, nil)
		buf, _ = c.KNNAppend(buf[:0], q, 10, Conservative)
		probe = (probe + 61) % int64(x.CycleSlots())
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
				c.Tune(probe, nil)
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
// memory: the bytes Open allocates, and Open plus the first window
// query, over the replay benchmark's index (10 000 objects, order 8).
// Open allocates the knowledge base's two page tables — one pointer per
// 64 frames and one per 16 objects, all at the shared zero page — and
// fixed state; a query allocates the stamp pages it writes and the
// bitmaps of its pending sets, and the session keeps both for the next
// query. The replay workloads open one session per worker per run, so a
// new per-frame or per-object array would show there as allocation per
// query, and here first. At 100 000 objects (order 10) Open must stay
// within its page tables plus a fixed slack: O(page tables), not
// O(dataset).
func TestSessionStateIsNotFrameSized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const (
		openBytes       = 8120 // single and split alike: one tuner type, no per-channel counters
		firstQueryBytes = 59464
		// Open's bytes beside its page tables: the session's fixed state
		// (under 2 KiB) and the allocator rounding each table up to its
		// size class (under one 8 KiB page each).
		openSlack = 2<<10 + 2*8<<10
	)
	x := sessionBed(t, 10000)
	split := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	w := spatial.ClampedWindow(100, 140, 25, x.DS.Curve.Side())
	for _, lay := range []*Layout{x.single, split} {
		open, first := sessionBytes(t, lay, w)
		t.Logf("%v x%d: Open allocates %d bytes (page tables %d), Open and the first query %d",
			lay.Sched, lay.Channels(), open, pageTableBytes(x), first)
		if open > openBytes+openBytes/100 {
			t.Errorf("%v x%d: Open allocates %d bytes, more than 1 %% above %d", lay.Sched, lay.Channels(), open, openBytes)
		}
		if open > pageTableBytes(x)+openSlack {
			t.Errorf("%v x%d: Open allocates %d bytes, more than its page tables (%d) plus %d", lay.Sched, lay.Channels(), open, pageTableBytes(x), openSlack)
		}
		if first > firstQueryBytes+firstQueryBytes/100 {
			t.Errorf("%v x%d: Open and the first query allocate %d bytes, more than 1 %% above %d", lay.Sched, lay.Channels(), first, firstQueryBytes)
		}
	}

	big := sessionBed(t, 100000)
	open, _ := sessionBytes(t, big.single, spatial.ClampedWindow(400, 560, 100, big.DS.Curve.Side()))
	t.Logf("N = 100 000: Open allocates %d bytes (page tables %d)", open, pageTableBytes(big))
	if limit := pageTableBytes(big) + openSlack; open > limit {
		t.Errorf("N = 100 000: Open allocates %d bytes, more than its page tables (%d) plus %d", open, pageTableBytes(big), openSlack)
	}
}

// sessionBed builds the index TestSessionStateIsNotFrameSized and
// BenchmarkOpen open sessions over: n uniform objects at the replay
// benchmark's configuration, on a grid of order 8 for 10 000 objects and
// order 10 beyond.
func sessionBed(tb testing.TB, n int) *Index {
	order := uint(8)
	if n > 10000 {
		order = 10
	}
	x, err := Build(dataset.Uniform(n, order, 1), Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// pageTableBytes is what a knowledge base's two page tables over x
// occupy: one pointer per frame page and one per object page.
func pageTableBytes(x *Index) uint64 {
	frames := (x.NF + framePageMask) >> framePageBits
	objs := (x.DS.N() + objPageMask) >> objPageBits
	return uint64(8 * (frames + objs))
}

// sessionBytes returns the bytes opening a session over lay allocates,
// and opening it and answering window w. TotalAlloc is process-wide:
// whatever else allocates in between only adds, so the smallest of a
// few readings is the session's.
func sessionBytes(t *testing.T, lay *Layout, w spatial.Rect) (open, first uint64) {
	open, first = math.MaxUint64, math.MaxUint64
	for try := 0; try < 5; try++ {
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := Open(lay.X, WithLayout(lay))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		s.Window(w)
		runtime.ReadMemStats(&m2)
		open, first = min(open, m1.TotalAlloc-m0.TotalAlloc), min(first, m2.TotalAlloc-m0.TotalAlloc)
	}
	return open, first
}

// BenchmarkOpen times opening a session over sessionBed's indexes, with
// its allocations: the page tables and fixed state a massive.Run worker
// pays before its first client.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		x := sessionBed(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Open(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
