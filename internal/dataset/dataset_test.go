package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

func TestMinOrderFor(t *testing.T) {
	cases := []struct {
		n     int
		slack float64
		want  uint
	}{
		{0, 2, 1},
		{1, 1, 1},
		{4, 1, 1},
		{5, 1, 2},
		{10000, 4, 8},    // 4^8 = 65536 >= 40000
		{10000, 8, 9},    // 80000 > 65536
		{1 << 40, 1, 20}, // 4^20 = 2^40
		{1 << 62, 4, 31}, // capped at MaxOrder
	}
	for _, tc := range cases {
		if got := MinOrderFor(tc.n, tc.slack); got != tc.want {
			t.Errorf("MinOrderFor(%d,%v) = %d, want %d", tc.n, tc.slack, got, tc.want)
		}
	}
}

func TestUniformProperties(t *testing.T) {
	d := Uniform(500, 6, 1)
	if d.N() != 500 {
		t.Fatalf("N = %d, want 500", d.N())
	}
	seen := make(map[uint64]bool)
	for i, o := range d.Objects {
		if o.ID != i {
			t.Fatalf("object %d has ID %d", i, o.ID)
		}
		if seen[o.HC] {
			t.Fatalf("duplicate HC %d", o.HC)
		}
		seen[o.HC] = true
		if got := d.Curve.Encode(o.P.X, o.P.Y); got != o.HC {
			t.Fatalf("object %d: HC %d does not match point %v", i, o.HC, o.P)
		}
		if i > 0 && d.Objects[i-1].HC >= o.HC {
			t.Fatalf("objects not sorted by HC at %d", i)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(200, 6, 42)
	b := Uniform(200, 6, 42)
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("same seed produced different datasets at %d", i)
		}
	}
	c := Uniform(200, 6, 43)
	same := true
	for i := range a.Objects {
		if a.Objects[i] != c.Objects[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestUniformPanicsWhenGridTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform did not panic for overfull grid")
		}
	}()
	Uniform(5, 1, 1) // order-1 grid has 4 cells
}

func TestClusteredProperties(t *testing.T) {
	d := Clustered(DefaultRealConfig(7))
	if d.N() != 5848 {
		t.Fatalf("N = %d, want 5848", d.N())
	}
	seen := make(map[uint64]bool)
	for i, o := range d.Objects {
		if seen[o.HC] {
			t.Fatalf("duplicate HC %d", o.HC)
		}
		seen[o.HC] = true
		if i > 0 && d.Objects[i-1].HC >= o.HC {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestClusteredIsSkewed(t *testing.T) {
	// Compare cell occupancy variance across coarse blocks: the clustered
	// dataset must be substantially more skewed than uniform.
	skew := func(d *Dataset) float64 {
		const blocks = 16
		side := d.Curve.Side()
		counts := make([]float64, blocks*blocks)
		for _, o := range d.Objects {
			bx := o.P.X * blocks / side
			by := o.P.Y * blocks / side
			counts[by*blocks+bx]++
		}
		mean := float64(d.N()) / float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(counts)) / (mean * mean)
	}
	u := Uniform(5848, 8, 3)
	r := Clustered(DefaultRealConfig(3))
	if skew(r) < 4*skew(u) {
		t.Errorf("clustered skew %v not clearly larger than uniform %v", skew(r), skew(u))
	}
}

func TestClusteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for N=0")
		}
	}()
	Clustered(ClusteredConfig{N: 0, Order: 8})
}

func TestWindowBrute(t *testing.T) {
	d := Uniform(300, 6, 5)
	w := spatial.Rect{MinX: 10, MinY: 10, MaxX: 40, MaxY: 40}
	got := d.WindowBrute(w)
	if !sort.IntsAreSorted(got) {
		t.Error("WindowBrute result not in ID (HC) order")
	}
	count := 0
	for _, o := range d.Objects {
		if w.Contains(o.P) {
			count++
		}
	}
	if len(got) != count {
		t.Errorf("WindowBrute returned %d, want %d", len(got), count)
	}
}

func TestKNNBrute(t *testing.T) {
	d := Uniform(300, 6, 5)
	q := spatial.Point{X: 30, Y: 30}
	ids, kth := d.KNNBrute(q, 10)
	if len(ids) != 10 {
		t.Fatalf("got %d ids", len(ids))
	}
	// Every non-returned object must be at distance >= kth.
	inSet := make(map[int]bool)
	for _, id := range ids {
		inSet[id] = true
		if d.ByID(id).P.Dist(q) > kth {
			t.Errorf("returned object %d farther than kth distance", id)
		}
	}
	for _, o := range d.Objects {
		if !inSet[o.ID] && o.P.Dist(q) < kth {
			t.Errorf("object %d at %v closer than kth %v but not returned", o.ID, o.P.Dist(q), kth)
		}
	}
}

// knnBySort is the definition KNNBrute's bounded selection must
// reproduce: rank every object by (squared distance, HC value) — IDs
// break what is left, since a stable sort keeps the dataset's ID order —
// and take the first k.
func knnBySort(d *Dataset, q spatial.Point, k int) ([]int, float64) {
	objs := append([]Object(nil), d.Objects...)
	sort.SliceStable(objs, func(i, j int) bool {
		di, dj := objs[i].P.Dist2(q), objs[j].P.Dist2(q)
		if di != dj {
			return di < dj
		}
		return objs[i].HC < objs[j].HC
	})
	k = min(k, len(objs))
	ids := make([]int, k)
	for i := range ids {
		ids[i] = objs[i].ID
	}
	return ids, math.Sqrt(objs[k-1].P.Dist2(q))
}

// TestKNNBruteMatchesSortDefinition holds the bounded selection to the
// sort over every object: the same IDs in the same order and the same
// k-th distance, bit for bit — on uniform and clustered datasets, on a
// fully occupied grid where most distances tie, and for k up to past N.
func TestKNNBruteMatchesSortDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	beds := []*Dataset{
		Uniform(500, 7, 3),
		Uniform(64, 3, 4), // every cell of an 8x8 grid: rings of equal distance
		Uniform(1, 2, 5),
		Clustered(ClusteredConfig{N: 400, Order: 7, Clusters: 8, Spread: 0.03, Isolated: 0.1, Seed: 6}),
	}
	for _, d := range beds {
		side := int(d.Curve.Side())
		for trial := 0; trial < 60; trial++ {
			q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			if trial%4 == 0 {
				q = spatial.Point{X: uint32(side / 2), Y: uint32(side / 2)} // the grid's centre: the most ties
			}
			k := 1 + rng.Intn(d.N()+3)
			if trial%5 == 0 {
				k = 1 + rng.Intn(8)
			}
			gotIDs, gotKth := d.KNNBrute(q, k)
			wantIDs, wantKth := knnBySort(d, q, k)
			if !slices.Equal(gotIDs, wantIDs) || gotKth != wantKth {
				t.Fatalf("%s, q=%v, k=%d: KNNBrute (%v, %v), sort (%v, %v)",
					d.Name, q, k, gotIDs, gotKth, wantIDs, wantKth)
			}
		}
	}
}

func TestKNNBruteEdgeCases(t *testing.T) {
	d := Uniform(10, 4, 1)
	if ids, _ := d.KNNBrute(spatial.Point{}, 0); ids != nil {
		t.Error("k=0 should return nil")
	}
	ids, _ := d.KNNBrute(spatial.Point{}, 100)
	if len(ids) != 10 {
		t.Errorf("k>n should return all %d objects, got %d", 10, len(ids))
	}
}

func TestFindHC(t *testing.T) {
	d := Uniform(100, 6, 9)
	for i, o := range d.Objects {
		if got := d.FindHC(o.HC); got != i {
			t.Fatalf("FindHC(%d) = %d, want %d", o.HC, got, i)
		}
	}
	if got := d.FindHC(d.Objects[d.N()-1].HC + 1); got != d.N() {
		t.Errorf("FindHC past end = %d, want %d", got, d.N())
	}
	if got := d.FindHC(0); got != 0 {
		if d.Objects[0].HC == 0 {
			t.Errorf("FindHC(0) = %d, want 0", got)
		}
	}
}

func TestKNNBruteMatchesKthDistQuick(t *testing.T) {
	d := Uniform(200, 6, 11)
	f := func(x, y uint8, kk uint8) bool {
		q := spatial.Point{X: uint32(x) % 64, Y: uint32(y) % 64}
		k := int(kk)%20 + 1
		ids, kth := d.KNNBrute(q, k)
		if len(ids) != k {
			return false
		}
		return d.KthDist(q, k) == kth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestXOrderMatchesSTRLeafSort: the cached x-order must be exactly the
// permutation an STR leaf sort (by center x, ties broken by object ID
// — a total order, so stable and unstable sorts agree) produces, and
// repeated calls must share one computation.
func TestXOrderMatchesSTRLeafSort(t *testing.T) {
	ds := Uniform(500, 8, 99)
	type item struct {
		x   float64
		ref int
	}
	items := make([]item, ds.N())
	for i, o := range ds.Objects {
		items[i] = item{x: float64(o.P.X), ref: o.ID}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].x != items[j].x {
			return items[i].x < items[j].x
		}
		return items[i].ref < items[j].ref
	})

	got := ds.XOrder()
	if len(got) != len(items) {
		t.Fatalf("XOrder has %d entries, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i].ref {
			t.Fatalf("XOrder[%d] = %d, STR leaf sort says %d", i, got[i], items[i].ref)
		}
	}
	if again := ds.XOrder(); &again[0] != &got[0] {
		t.Error("XOrder recomputed instead of cached")
	}
}

// TestHCKeysCached: key extraction is in HC (ID) order and computed
// once.
func TestHCKeysCached(t *testing.T) {
	ds := Uniform(200, 7, 5)
	keys, vals := ds.HCKeys()
	for i, o := range ds.Objects {
		if keys[i] != o.HC || vals[i] != o.ID {
			t.Fatalf("entry %d: (%d,%d) != object (%d,%d)", i, keys[i], vals[i], o.HC, o.ID)
		}
	}
	k2, v2 := ds.HCKeys()
	if &k2[0] != &keys[0] || &v2[0] != &vals[0] {
		t.Error("HCKeys recomputed instead of cached")
	}
}

// TestFinishEqualHC sorts a dataset whose objects crowd onto a few
// cells, in many orders, and holds finish to a sort.Slice oracle: the
// same objects, IDs included, whichever order equal HC values land in.
func TestFinishEqualHC(t *testing.T) {
	c := hilbert.New(5)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		objs := make([]Object, 300+rng.Intn(300))
		for i := range objs {
			p := spatial.Point{X: uint32(rng.Intn(4)), Y: uint32(rng.Intn(3))}
			objs[i] = Object{ID: -1, P: p, HC: c.Encode(p.X, p.Y)}
		}
		want := slices.Clone(objs)
		sort.Slice(want, func(i, j int) bool { return want[i].HC < want[j].HC })
		for i := range want {
			want[i].ID = i
		}
		if got := finish(c, objs, "crowded").Objects; !slices.Equal(got, want) {
			t.Fatalf("trial %d: finish = %v, want %v", trial, got, want)
		}
	}
}
