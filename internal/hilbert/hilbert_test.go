package hilbert

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPaperFigure2Orientation(t *testing.T) {
	// The paper's Figure 2 (order-3 curve) states that cell (1,1) has HC
	// value 2. The figure also labels a few other cells we can read off:
	// the curve starts at (0,0)=0 and ends at (7,0)=63.
	c := New(3)
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 1, 2},
		{1, 0, 3},
		{7, 0, 63},
	}
	for _, tc := range cases {
		if got := c.Encode(tc.x, tc.y); got != tc.want {
			t.Errorf("Encode(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestEncodeDecodeRoundTripSmall(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		c := New(order)
		seen := make(map[uint64]bool, c.Size())
		for x := uint32(0); x < c.Side(); x++ {
			for y := uint32(0); y < c.Side(); y++ {
				d := c.Encode(x, y)
				if d >= c.Size() {
					t.Fatalf("order %d: Encode(%d,%d)=%d out of range", order, x, y, d)
				}
				if seen[d] {
					t.Fatalf("order %d: duplicate HC value %d", order, d)
				}
				seen[d] = true
				gx, gy := c.Decode(d)
				if gx != x || gy != y {
					t.Fatalf("order %d: Decode(Encode(%d,%d)) = (%d,%d)", order, x, y, gx, gy)
				}
			}
		}
		if uint64(len(seen)) != c.Size() {
			t.Fatalf("order %d: curve visited %d cells, want %d", order, len(seen), c.Size())
		}
	}
}

func TestCurveContinuity(t *testing.T) {
	// Consecutive HC values must be 4-adjacent cells: the defining
	// property of the Hilbert curve.
	for order := uint(1); order <= 5; order++ {
		c := New(order)
		px, py := c.Decode(0)
		for d := uint64(1); d < c.Size(); d++ {
			x, y := c.Decode(d)
			dx := int64(x) - int64(px)
			dy := int64(y) - int64(py)
			if dx*dx+dy*dy != 1 {
				t.Fatalf("order %d: step %d->%d jumps from (%d,%d) to (%d,%d)",
					order, d-1, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	c := New(16)
	f := func(x, y uint32) bool {
		x %= c.Side()
		y %= c.Side()
		gx, gy := c.Decode(c.Encode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEncodeQuick(t *testing.T) {
	c := New(16)
	f := func(d uint64) bool {
		d %= c.Size()
		x, y := c.Decode(d)
		return c.Encode(x, y) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadOrder(t *testing.T) {
	for _, order := range []uint{0, MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", order)
				}
			}()
			New(order)
		}()
	}
}

func TestEncodePanicsOutsideGrid(t *testing.T) {
	c := New(3)
	defer func() {
		if recover() == nil {
			t.Error("Encode outside grid did not panic")
		}
	}()
	c.Encode(8, 0)
}

func TestDecodePanicsOutsideCurve(t *testing.T) {
	c := New(3)
	defer func() {
		if recover() == nil {
			t.Error("Decode outside curve did not panic")
		}
	}()
	c.Decode(64)
}

// bruteRect returns the sorted HC values of cells in the inclusive rect.
func bruteRect(c Curve, x0, y0, x1, y1 uint32) map[uint64]bool {
	in := make(map[uint64]bool)
	for x := x0; x <= x1 && x < c.Side(); x++ {
		for y := y0; y <= y1 && y < c.Side(); y++ {
			in[c.Encode(x, y)] = true
		}
	}
	return in
}

func rangesCover(rs []Range) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, r := range rs {
		for v := r.Lo; v < r.Hi; v++ {
			out[v] = true
		}
	}
	return out
}

func sameSet(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func TestRangesExactSmall(t *testing.T) {
	c := New(4)
	cases := [][4]uint32{
		{0, 0, 15, 15}, // whole grid
		{0, 0, 0, 0},   // single cell
		{3, 5, 9, 12},
		{1, 1, 2, 14},
		{0, 8, 15, 8}, // single row
		{7, 0, 7, 15}, // single column
		{14, 14, 15, 15},
		// Past the grid: wholly past each edge, a min corner on the
		// side itself, straddling an edge, inverted.
		{20, 3, 30, 9},
		{3, 20, 9, 30},
		{16, 0, 16, 15},
		{0, 16, 15, 16},
		{16, 16, math.MaxUint32, math.MaxUint32},
		{10, 12, 100, 13},
		{2, 9, 4, math.MaxUint32},
		{9, 3, 4, 8},
	}
	for _, tc := range cases {
		rs := c.Ranges(tc[0], tc[1], tc[2], tc[3])
		want := bruteRect(c, tc[0], tc[1], tc[2], tc[3])
		if !sameSet(rangesCover(rs), want) {
			t.Errorf("Ranges(%v) covers wrong cell set", tc)
		}
		// Ranges must be sorted, disjoint and non-adjacent (maximal).
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo <= rs[i-1].Hi {
				t.Errorf("Ranges(%v): ranges %v and %v not maximal/disjoint", tc, rs[i-1], rs[i])
			}
		}
	}
}

func TestRangesQuick(t *testing.T) {
	c := New(5)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		x0 := uint32(rng.Intn(int(c.Side())))
		y0 := uint32(rng.Intn(int(c.Side())))
		x1 := x0 + uint32(rng.Intn(int(c.Side()-x0)))
		y1 := y0 + uint32(rng.Intn(int(c.Side()-y0)))
		rs := c.Ranges(x0, y0, x1, y1)
		want := bruteRect(c, x0, y0, x1, y1)
		if !sameSet(rangesCover(rs), want) {
			t.Fatalf("Ranges(%d,%d,%d,%d) wrong", x0, y0, x1, y1)
		}
	}
}

func TestRangesClampsToGrid(t *testing.T) {
	c := New(3)
	rs := c.Ranges(0, 0, 100, 100)
	if len(rs) != 1 || rs[0].Lo != 0 || rs[0].Hi != c.Size() {
		t.Errorf("clamped whole-grid Ranges = %v, want [0,%d)", rs, c.Size())
	}
}

func TestRangesDiskExact(t *testing.T) {
	c := New(5)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		qx := rng.Float64() * float64(c.Side())
		qy := rng.Float64() * float64(c.Side())
		r := rng.Float64() * float64(c.Side()) / 2
		rs := c.RangesDisk(qx, qy, r)
		want := make(map[uint64]bool)
		for x := uint32(0); x < c.Side(); x++ {
			for y := uint32(0); y < c.Side(); y++ {
				dx := float64(x) - qx
				dy := float64(y) - qy
				if dx*dx+dy*dy <= r*r {
					want[c.Encode(x, y)] = true
				}
			}
		}
		if !sameSet(rangesCover(rs), want) {
			t.Fatalf("RangesDisk(%.3f,%.3f,%.3f) wrong cell set", qx, qy, r)
		}
	}
}

func TestRangesDiskNegativeRadius(t *testing.T) {
	c := New(4)
	if rs := c.RangesDisk(3, 3, -1); rs != nil {
		t.Errorf("negative radius gave %v, want nil", rs)
	}
}

func TestRangesDiskZeroRadiusOnCell(t *testing.T) {
	c := New(4)
	rs := c.RangesDisk(5, 9, 0)
	want := c.Encode(5, 9)
	if len(rs) != 1 || rs[0].Lo != want || rs[0].Hi != want+1 {
		t.Errorf("zero radius on cell gave %v, want [%d,%d)", rs, want, want+1)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if r.Len() != 10 {
		t.Errorf("Len = %d, want 10", r.Len())
	}
	if !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Error("Contains boundary behaviour wrong")
	}
	if !r.Overlaps(Range{19, 25}) || r.Overlaps(Range{20, 25}) || r.Overlaps(Range{0, 10}) {
		t.Error("Overlaps boundary behaviour wrong")
	}
	if r.String() != "[10,20)" {
		t.Errorf("String = %q", r.String())
	}
}

func BenchmarkEncode(b *testing.B) {
	c := New(16)
	for i := 0; i < b.N; i++ {
		c.Encode(uint32(i)%c.Side(), uint32(i*7)%c.Side())
	}
}

func BenchmarkDecode(b *testing.B) {
	c := New(16)
	for i := 0; i < b.N; i++ {
		c.Decode(uint64(i) % c.Size())
	}
}

func BenchmarkRangesWindow(b *testing.B) {
	c := New(10)
	for i := 0; i < b.N; i++ {
		c.Ranges(100, 100, 200, 200)
	}
}

// TestRangesSingleCellMatchesEncode pins the curve-ordered subdivision's
// arithmetic block bases to the Encode tables: a one-cell query descends
// the full tree through every orientation on its path, so the derived
// base must equal the cell's HC value for every cell of the grid.
func TestRangesSingleCellMatchesEncode(t *testing.T) {
	c := New(4)
	for x := uint32(0); x < c.Side(); x++ {
		for y := uint32(0); y < c.Side(); y++ {
			rs := c.Ranges(x, y, x, y)
			want := c.Encode(x, y)
			if len(rs) != 1 || rs[0].Lo != want || rs[0].Hi != want+1 {
				t.Fatalf("Ranges(%d,%d) = %v, want [%d,%d)", x, y, rs, want, want+1)
			}
		}
	}
}

// TestRangesDiskMaximal asserts disk decompositions surface sorted,
// disjoint, non-adjacent ranges — the invariant the curve-ordered
// traversal maintains without a sort pass.
func TestRangesDiskMaximal(t *testing.T) {
	c := New(5)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		qx := rng.Float64() * float64(c.Side())
		qy := rng.Float64() * float64(c.Side())
		r := rng.Float64() * float64(c.Side()) / 2
		rs := c.RangesDisk(qx, qy, r)
		for j := 1; j < len(rs); j++ {
			if rs[j].Lo <= rs[j-1].Hi {
				t.Fatalf("RangesDisk(%.3f,%.3f,%.3f): ranges %v and %v not maximal/disjoint",
					qx, qy, r, rs[j-1], rs[j])
			}
		}
	}
}

// checkRect holds AppendRanges of one rectangle to the generic walk
// over the raw rectangle, and to brute force on small curves: the same
// runs, sorted and maximal, appended after what dst held.
func checkRect(t testing.TB, c Curve, x0, y0, x1, y1 uint32) {
	t.Helper()
	want := rectOracle{x0, y0, x1, y1}.ranges(c)
	prefix := []Range{{Lo: 7, Hi: 9}}
	got := c.AppendRanges(slices.Clone(prefix), x0, y0, x1, y1)
	if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
		t.Fatalf("order %d: AppendRanges(%d,%d,%d,%d) = %v, want %v after %v", c.Order(), x0, y0, x1, y1, got, want, prefix)
	}
	for i := 2; i < len(got); i++ {
		if got[i].Lo <= got[i-1].Hi || got[i].Hi <= got[i].Lo {
			t.Fatalf("order %d: AppendRanges(%d,%d,%d,%d): ranges %v and %v not sorted and maximal", c.Order(), x0, y0, x1, y1, got[i-1], got[i])
		}
	}
	if c.Order() <= 6 && !sameSet(rangesCover(got[1:]), bruteRect(c, x0, y0, x1, y1)) {
		t.Fatalf("order %d: AppendRanges(%d,%d,%d,%d) covers the wrong cells", c.Order(), x0, y0, x1, y1)
	}
}

// TestRangesMatchOracleSmall runs every rectangle of orders 1 to 4,
// corners up to two past the grid's side and at the largest coordinate
// included, inverted ones too.
func TestRangesMatchOracleSmall(t *testing.T) {
	for order := uint(1); order <= 4; order++ {
		c := New(order)
		var coords []uint32
		for v := uint32(0); v <= c.Side()+1; v++ {
			coords = append(coords, v)
		}
		coords = append(coords, math.MaxUint32)
		for _, x0 := range coords {
			for _, y0 := range coords {
				for _, x1 := range coords {
					for _, y1 := range coords {
						checkRect(t, c, x0, y0, x1, y1)
					}
				}
			}
		}
	}
}

// TestRangesMatchOracleLarge runs random rectangles on large curves:
// windows of up to 48 cells a side anywhere (past the grid included),
// and rectangles whose edges lie on a lattice of 16 blocks a side, so
// the boundary, which both pay for block by block, stays short.
func TestRangesMatchOracleLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, order := range []uint{8, 16, 31} {
		c := New(order)
		side := uint64(c.Side())
		coord := func(n uint64) uint32 { return uint32(rng.Int63n(int64(n))) }
		for i := 0; i < 300; i++ {
			x0, y0 := coord(side+side/8), coord(side+side/8)
			checkRect(t, c, x0, y0, x0+coord(48), y0+coord(48))
			step := uint32(side / 16)
			x0, y0 = coord(17)*step, coord(17)*step
			checkRect(t, c, x0, y0, x0+coord(10)*step-1, y0+coord(10)*step-1)
		}
	}
}

// FuzzRectRanges holds the rectangle descent to the generic walk over
// arbitrary orders and corners, and to brute force up to order 6.
// Above order 8 the max corner is drawn within 64 cells of the min
// corner (either side of it), so the walk's cost stays bounded.
func FuzzRectRanges(f *testing.F) {
	f.Add(uint8(3), uint32(1), uint32(2), uint32(6), uint32(5))
	f.Add(uint8(7), uint32(200), uint32(0), uint32(250), uint32(127))
	f.Add(uint8(4), uint32(3), uint32(14), uint32(100), uint32(math.MaxUint32))
	f.Add(uint8(30), uint32(1<<30), uint32(12345), uint32(77), uint32(5))
	f.Add(uint8(5), uint32(9), uint32(9), uint32(2), uint32(20))
	f.Fuzz(func(t *testing.T, order uint8, x0, y0, x1, y1 uint32) {
		c := New(1 + uint(order)%MaxOrder)
		if c.Order() > 8 {
			x1, y1 = x0^(x1&63), y0^(y1&63)
		}
		checkRect(t, c, x0, y0, x1, y1)
	})
}

// BenchmarkAppendRanges decomposes windows of a tenth of the grid's
// side at random places on an order-8 curve into a warm buffer; ns/op
// is per window.
func BenchmarkAppendRanges(b *testing.B) {
	c := New(8)
	rng := rand.New(rand.NewSource(3))
	ws := make([][4]uint32, 256)
	for i := range ws {
		x, y := uint32(rng.Intn(231)), uint32(rng.Intn(231))
		ws[i] = [4]uint32{x, y, x + 25, y + 25}
	}
	var dst []Range
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &ws[i%len(ws)]
		dst = c.AppendRanges(dst[:0], w[0], w[1], w[2], w[3])
	}
}
