package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// chargeOracle is the per-range charge the forward pass is held to: a
// fresh binary search over all frames for each range.
func chargeOracle(x *dsi.Index, freq []float64, targets []hilbert.Range, w float64) {
	if w == 0 {
		return
	}
	for _, r := range targets {
		if r.Lo >= r.Hi {
			continue
		}
		f := sort.Search(x.NF, func(f int) bool {
			return f+1 >= x.NF || x.MinHC(f+1) >= r.Lo
		})
		for ; f < x.NF && x.MinHC(f) < r.Hi; f++ {
			freq[f] += w
		}
	}
}

// crowdedIndex builds an index over objects piled onto few cells, up to
// a dozen a cell, so runs of equal HC cross frame boundaries and
// neighbouring frames share their minimum.
func crowdedIndex(t *testing.T) *dsi.Index {
	t.Helper()
	c := hilbert.New(6)
	rng := rand.New(rand.NewSource(3))
	var objs []dataset.Object
	for len(objs) < 600 {
		p := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
		for k := 1 + rng.Intn(12); k > 0; k-- {
			objs = append(objs, dataset.Object{P: p, HC: c.Encode(p.X, p.Y)})
		}
	}
	slices.SortFunc(objs, func(a, b dataset.Object) int { return cmp.Compare(a.HC, b.HC) })
	for i := range objs {
		objs[i].ID = i
	}
	x, err := dsi.Build(&dataset.Dataset{Curve: c, Objects: objs, Name: "crowded"}, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	dup := false
	for f := 0; f+1 < x.NF; f++ {
		dup = dup || x.MinHC(f) == x.MinHC(f+1)
	}
	if !dup {
		t.Fatal("no two frames share a minimum")
	}
	return x
}

// chargeQueries returns query target lists of every shape the charge
// meets: a window's ascending ranges, one-cell ranges at object HC
// values (many to a frame), ranges starting at every frame minimum
// (shared minima included), empty and inverted ranges mixed in, and
// each of these shuffled.
func chargeQueries(x *dsi.Index, rng *rand.Rand) [][]hilbert.Range {
	c := x.DS.Curve
	side := int(c.Side())
	var qs [][]hilbert.Range
	for i := 0; i < 60; i++ {
		x0, y0 := uint32(rng.Intn(side)), uint32(rng.Intn(side))
		qs = append(qs, c.AppendRanges(nil, x0, y0, x0+uint32(rng.Intn(side/2)), y0+uint32(rng.Intn(side/2))))
	}
	var cells, minima []hilbert.Range
	for _, o := range x.DS.Objects {
		if rng.Intn(4) == 0 {
			cells = append(cells, hilbert.Range{Lo: o.HC, Hi: o.HC + 1})
		}
	}
	for f := 0; f < x.NF; f++ {
		m := x.MinHC(f)
		minima = append(minima, hilbert.Range{Lo: m, Hi: m + 1 + uint64(rng.Intn(3))})
	}
	qs = append(qs, cells, minima, []hilbert.Range{{Lo: 0, Hi: c.Size() + 5}}, nil)
	for _, q := range qs {
		mixed := slices.Clone(q)
		for k := 0; k < 3; k++ {
			a := uint64(rng.Int63n(int64(c.Size())))
			at := rng.Intn(len(mixed) + 1)
			mixed = slices.Insert(mixed, at, hilbert.Range{Lo: a, Hi: a}, hilbert.Range{Lo: a + 9, Hi: a})
		}
		shuffled := slices.Clone(q)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		qs = append(qs, mixed, shuffled)
	}
	return qs
}

// TestChargeMatchesPerRangeSearch holds Profile and OnlineProfiler to
// the per-range oracle, frame weight by frame weight with ==, on a
// plain and a crowded index; the online profiler with a half-life short
// enough that its scale is renormalized several times.
func TestChargeMatchesPerRangeSearch(t *testing.T) {
	for _, x := range []*dsi.Index{buildIndex(t, 2000, 4), crowdedIndex(t)} {
		rng := rand.New(rand.NewSource(int64(x.NF)))
		p := NewProfile(x)
		want := make([]float64, x.NF)
		op, ref := NewOnlineProfiler(x, 0.3), NewOnlineProfiler(x, 0.3)
		rescales := 0
		for round := 0; round < 3; round++ {
			for i, q := range chargeQueries(x, rng) {
				w := 0.1 + rng.Float64()
				if i%7 == 0 {
					w = 0
				}
				p.AddRanges(q, w)
				chargeOracle(x, want, q, w)
				op.Observe(q, w)
				scale := ref.scale
				ref.tick()
				if ref.scale < scale {
					rescales++
				}
				chargeOracle(x, ref.freq, q, w*ref.scale)
				if len(q) > 0 {
					r := q[0]
					p.AddRange(r.Lo, r.Hi, w)
					chargeOracle(x, want, q[:1], w)
					op.ObserveRange(r.Lo, r.Hi, w)
					ref.tick()
					chargeOracle(x, ref.freq, q[:1], w*ref.scale)
				}
				if !slices.Equal(p.Freq, want) {
					t.Fatalf("%d frames, query %d: Profile.Freq differs from the per-range oracle", x.NF, i)
				}
				if !slices.Equal(op.freq, ref.freq) || op.scale != ref.scale {
					t.Fatalf("%d frames, query %d: OnlineProfiler differs from the per-range oracle", x.NF, i)
				}
			}
		}
		if rescales < 2 {
			t.Fatalf("%d frames: %d rescales, want the scale renormalized at least twice", x.NF, rescales)
		}
	}
}

// BenchmarkAddRanges charges the ranges of windows a tenth of the
// grid's side, on an index of 5 000 one-object frames over an order-8
// grid; ns/op is per window.
func BenchmarkAddRanges(b *testing.B) {
	x, err := dsi.Build(dataset.Uniform(5000, 8, 1), dsi.Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([][]hilbert.Range, 256)
	for i := range qs {
		x0, y0 := uint32(rng.Intn(231)), uint32(rng.Intn(231))
		qs[i] = x.DS.Curve.AppendRanges(nil, x0, y0, x0+25, y0+25)
	}
	p := NewProfile(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRanges(qs[i%len(qs)], 1)
	}
}
