package dsi

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// manyRangesBed is the state the navigation benchmarks share: a
// two-segment index over 2000 objects and a many-range target set (the
// shape of a kNN disk decomposition) — small, spread-out ranges, one
// object each.
func manyRangesBed(b *testing.B) (*Index, []hilbert.Range, []int) {
	ds := dataset.Uniform(2000, 8, 5)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		b.Fatal(err)
	}
	var targets []hilbert.Range
	var ids []int
	for i := 40; i < ds.N(); i += 50 {
		hc := ds.Objects[i].HC
		targets = append(targets, hilbert.Range{Lo: hc, Hi: hc + 1})
		ids = append(ids, i)
	}
	return x, targets, ids
}

// BenchmarkNextUsefulManyRanges times what one learned frame costs the
// navigation: patch the pending sets for it, then choose the next frame
// — over a knowledge base that fills from the catalog to the whole
// cycle, in random order, and starts over. Before the pending set this
// was a walk over ranges x known frames per choice (BenchmarkWalkOracle
// times that walk on the full knowledge base).
func BenchmarkNextUsefulManyRanges(b *testing.B) {
	x, targets, _ := manyRangesBed(b)
	kb := newKnowledge(x)
	order := rand.New(rand.NewSource(1)).Perm(x.NF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%x.NF == 0 {
			kb.reset()
			kb.retarget(targets)
		}
		f := order[i%x.NF]
		kb.addFrameFact(f, x.MinHC(f))
		if _, ok := kb.nextPending(i % x.NF); !ok {
			b.Fatal("nothing useful")
		}
	}
}

// BenchmarkResolvedManyRanges measures the termination test on the full
// knowledge base with every target retrieved: nothing is pending, so the
// chooser reads empty sets.
func BenchmarkResolvedManyRanges(b *testing.B) {
	x, targets, ids := manyRangesBed(b)
	kb := newKnowledge(x)
	kb.retarget(targets)
	teachAll(kb, x)
	for _, id := range ids {
		kb.markRetrieved(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := kb.nextPending(i % x.NF); ok {
			b.Fatal("unresolved")
		}
	}
}

// BenchmarkEvalUnits times what evaluating one frame's units costs, in
// ns and allocations per evaluation, on the index/data split arm of the
// massive testbed (BenchmarkWindowSplitHop's bed: 10 000 objects, four
// channels, 10 % windows; 1 000 objects under -short). The frame facts
// 50 window queries learned from their table reads are replayed into a
// knowledge base — teach the frame, patch the pending sets — with no
// air, receiver or chooser in between. Evaluations are counted once,
// untimed: a new fact evaluates its frame, and its predecessor when that
// has a pending unit; a query's reset and its targets each evaluate the
// catalog frames.
func BenchmarkEvalUnits(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	ds := dataset.Uniform(n, 8, 1)
	x, err := Build(ds, Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		b.Fatal(err)
	}
	lay := mustLayout(b, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	// Record: the targets and the intact table reads of each query.
	type query struct {
		targets []hilbert.Range
		tables  []int
	}
	queries := make([]query, 50)
	c := openClient(lay, 0, nil)
	var cur *query
	c.SetTracer(func(e Event) {
		if e.Op == OpTableRead && e.OK {
			cur.tables = append(cur.tables, e.Pos)
		}
	})
	rng := rand.New(rand.NewSource(1))
	side := ds.Curve.Side()
	for i := range queries {
		probe := rng.Int63n(int64(lay.ProbeCycle()))
		w := spatial.ClampedWindow(uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side))), side/10, side)
		cur = &queries[i]
		c.Tune(probe, nil)
		c.Window(w)
		cur.targets = slices.Clone(c.scr.targets)
	}
	c.SetTracer(nil)

	kb := c.kb
	replay := func(count bool) (evals int) {
		learn := func(f int, hc uint64) {
			if count && !kb.frameKnown(f) {
				evals++
				j := kb.frameSpan(f)
				if it := kb.known[j].Ceil(f - kb.spanStart[j]); it.Prev() && kb.units(kb.spanStart[j]+it.Value()) != 0 {
					evals++
				}
			}
			kb.addFrameFact(f, hc)
		}
		for _, q := range queries {
			kb.reset()
			kb.retarget(q.targets)
			evals += 2 * kb.nspan
			for _, p := range q.tables {
				t := x.TableAt(p)
				learn(x.PosToFrame(p), t.OwnHC)
				for _, e := range t.Entries {
					learn(x.PosToFrame(e.TargetPos), e.MinHC)
				}
			}
		}
		return evals
	}
	evals := replay(true)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(false)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	total := float64(b.N * evals)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/eval")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/total, "allocs/eval")
	b.ReportMetric(float64(evals)/float64(len(queries)), "evals/query")
}

// BenchmarkWalkOracle times the walk the pending set replaced, on the
// full knowledge base the two benchmarks above used to time it on: one
// chooser call with every range pending, one termination test with every
// range resolved. It keeps the before/after of the change reproducible
// from one checkout.
func BenchmarkWalkOracle(b *testing.B) {
	x, targets, ids := manyRangesBed(b)
	b.Run("next", func(b *testing.B) {
		kb := newKnowledge(x)
		teachAll(kb, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := kb.nextUseful(i%x.NF, targets); !ok {
				b.Fatal("nothing useful")
			}
		}
	})
	b.Run("resolved", func(b *testing.B) {
		kb := newKnowledge(x)
		teachAll(kb, x)
		for _, id := range ids {
			kb.markRetrieved(id)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !kb.resolved(targets) {
				b.Fatal("unresolved")
			}
		}
	})
}
