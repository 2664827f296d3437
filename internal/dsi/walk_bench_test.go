package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/hilbert"
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
