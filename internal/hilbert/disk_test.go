package hilbert

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// diskOracle is the reference the disk is held to: a block
// classifier of the closed disk of squared radius r2 around (qx, qy),
// run through the generic walk (appendRangesFunc).
type diskOracle struct {
	qx, qy, r2 float64
}

func (d *diskOracle) classify(x0, y0, x1, y1 uint32) region {
	min := rectPointMinDist2(float64(x0), float64(y0), float64(x1), float64(y1), d.qx, d.qy)
	if min > d.r2 {
		return regionOutside
	}
	max := rectPointMaxDist2(float64(x0), float64(y0), float64(x1), float64(y1), d.qx, d.qy)
	if max <= d.r2 {
		return regionInside
	}
	return regionPartial
}

// ranges is the reference decomposition. A NaN anywhere is at no
// distance from any cell.
func (d *diskOracle) ranges(c Curve) []Range {
	if d.qx != d.qx || d.qy != d.qy || d.r2 != d.r2 {
		return nil
	}
	return c.appendRangesFunc(nil, d.classify)
}

// rectPointMinDist2 returns the squared distance from (qx,qy) to the
// closest point of the rectangle [x0,x1]x[y0,y1].
func rectPointMinDist2(x0, y0, x1, y1, qx, qy float64) float64 {
	dx := 0.0
	switch {
	case qx < x0:
		dx = x0 - qx
	case qx > x1:
		dx = qx - x1
	}
	dy := 0.0
	switch {
	case qy < y0:
		dy = y0 - qy
	case qy > y1:
		dy = qy - y1
	}
	return float64(dx*dx) + float64(dy*dy)
}

// rectPointMaxDist2 returns the squared distance from (qx,qy) to the
// farthest corner of the rectangle [x0,x1]x[y0,y1].
func rectPointMaxDist2(x0, y0, x1, y1, qx, qy float64) float64 {
	dx := qx - x0
	if d := x1 - qx; d > dx {
		dx = d
	}
	dy := qy - y0
	if d := y1 - qy; d > dy {
		dy = d
	}
	return float64(dx*dx) + float64(dy*dy)
}

// firstOf is First by brute force over the reference runs rs: the first
// cell of [a, b) inside them (in) or outside (!in), b when there is none
// below min(b, size).
func firstOf(rs []Range, size, a, b uint64, in bool) uint64 {
	end := min(b, size)
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > a })
	got := end
	switch {
	case a >= end:
	case in:
		if i < len(rs) {
			got = max(rs[i].Lo, a)
		}
	case i < len(rs) && rs[i].Lo <= a:
		got = rs[i].Hi
	default:
		got = a
	}
	if got >= end {
		return b
	}
	return got
}

// checkDisk holds every answer of d to the reference decomposition: the
// ranges AppendRanges appends after what dst held, End, Contains on
// every cell (a sample of cells on large curves, the runs' edges
// included), and First in and out and Meets over intervals around the
// runs' edges, from empty to past the curve's end.
func checkDisk(t testing.TB, d Disk, rng *rand.Rand) {
	t.Helper()
	c := d.Curve
	size := c.Size()
	ctx := func() string {
		return fmt.Sprintf("order %d centre (%v,%v) r2 %v", c.Order(), d.Qx, d.Qy, d.R2)
	}
	rs := (&diskOracle{d.Qx, d.Qy, d.R2}).ranges(c)
	prefix := []Range{{Lo: 7, Hi: 9}}
	if got := d.AppendRanges(slices.Clone(prefix)); !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], rs) {
		t.Fatalf("%s: AppendRanges = %v, want %v after %v", ctx(), got, rs, prefix)
	}
	wantEnd := uint64(0)
	if len(rs) > 0 {
		wantEnd = rs[len(rs)-1].Hi
	}
	if got := d.End(); got != wantEnd {
		t.Fatalf("%s: End = %d, want %d (ranges %v)", ctx(), got, wantEnd, rs)
	}
	var pts []uint64
	for _, r := range rs {
		pts = append(pts, r.Lo, r.Hi)
		if r.Lo > 0 {
			pts = append(pts, r.Lo-1)
		}
		if r.Hi > 1 {
			pts = append(pts, r.Hi-2)
		}
	}
	for k := 0; k < 16; k++ {
		pts = append(pts, uint64(rng.Int63n(int64(size))))
	}
	pts = append(pts, 0, size-1)
	if len(pts) > 200 {
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		pts = pts[:200]
	}
	cells := pts
	if size <= 1<<14 {
		cells = nil
		for h := uint64(0); h < size; h++ {
			cells = append(cells, h)
		}
	}
	for _, h := range cells {
		if h >= size {
			continue
		}
		if got, want := d.Contains(h), firstOf(rs, size, h, h+1, true) == h; got != want {
			t.Fatalf("%s: Contains(%d) = %v, want %v", ctx(), h, got, want)
		}
	}
	for _, a := range pts {
		for _, n := range []uint64{0, 1, 2, 3, uint64(1 + rng.Intn(64)), uint64(rng.Int63n(int64(size))), size} {
			b := a + n
			for _, in := range []bool{true, false} {
				if got, want := d.First(a, b, in), firstOf(rs, size, a, b, in); got != want {
					t.Fatalf("%s: First(%d, %d, %v) = %d, want %d (ranges %v)", ctx(), a, b, in, got, want, rs)
				}
			}
			if got, want := d.Meets(a, b), firstOf(rs, size, a, b, true) < b; got != want {
				t.Fatalf("%s: Meets(%d, %d) = %v, want %v (ranges %v)", ctx(), a, b, got, want, rs)
			}
		}
	}
}

// diskRadii2 draws a radius sequence the way a kNN search space
// shrinks: unbounded, then squared distances to random cells (exactly on
// the boundary of the closed disk), repeats, thin annuli and arbitrary
// cuts, down to zero.
func diskRadii2(rng *rand.Rand, side, qx, qy float64) []float64 {
	cell := func() float64 {
		dx, dy := float64(rng.Intn(int(side)))-qx, float64(rng.Intn(int(side)))-qy
		return float64(dx*dx) + float64(dy*dy)
	}
	r2s := []float64{math.Inf(1), cell()}
	for len(r2s) < 14 {
		last := r2s[len(r2s)-1]
		switch rng.Intn(4) {
		case 0:
			r2s = append(r2s, last) // repeat
		case 1:
			r2s = append(r2s, last*0.98) // thin annulus
		case 2:
			if next := cell(); next <= last {
				r2s = append(r2s, next)
			}
		case 3:
			r2s = append(r2s, last*rng.Float64())
		}
	}
	return append(r2s, 0)
}

// TestDiskMatchesOracle holds the disk's five answers, along shrinking
// radius sequences, to the generic decomposition of a reference block
// classifier and to brute force over its runs.
func TestDiskMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, order := range []uint{1, 3, 6, 8, 10} {
		c := New(order)
		side := float64(c.Side())
		trials := 40
		if order >= 8 {
			trials = 8
		}
		for trial := 0; trial < trials; trial++ {
			var qx, qy float64
			switch trial % 4 {
			case 0: // on a cell
				qx, qy = float64(rng.Intn(int(side))), float64(rng.Intn(int(side)))
			case 1: // between cells
				qx, qy = rng.Float64()*side, rng.Float64()*side
			case 2: // outside the grid
				qx, qy = -rng.Float64()*side, side+rng.Float64()*side
			case 3: // beside the grid, on a cell row
				qx, qy = side+float64(rng.Intn(int(side))), float64(rng.Intn(int(side)))
			}
			for _, r2 := range diskRadii2(rng, side, qx, qy) {
				checkDisk(t, Disk{c, qx, qy, r2}, rng)
			}
		}
	}
}

// TestDiskGrownRadius checks a radius sequence that grows again between
// shrinks: each radius is just another disk, answered in full.
func TestDiskGrownRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, r2 := range []float64{100, 9, 400, 400, 25, math.Inf(1), 0, 1, -1} {
		checkDisk(t, Disk{New(6), 20, 41.5, r2}, rng)
	}
}

func TestRangesDiskNaN(t *testing.T) {
	// At order 16 a descent that subdivided every block would make 4^16
	// classifications, and one that took a NaN's blocks for crossed ones
	// would recurse past single cells; these return without descending.
	c := New(16)
	nan := math.NaN()
	dst := []Range{{Lo: 1, Hi: 2}}
	for _, tc := range [][3]float64{{5, 5, nan}, {nan, 5, 3}, {5, nan, 3}, {nan, nan, nan}} {
		if got := c.AppendRangesDisk(dst, tc[0], tc[1], tc[2]); !slices.Equal(got, dst) {
			t.Errorf("AppendRangesDisk(%v) = %v, want dst unchanged", tc, got)
		}
		d := Disk{c, tc[0], tc[1], tc[2] * tc[2]}
		if got := d.AppendRanges(dst); !slices.Equal(got, dst) {
			t.Errorf("%+v: AppendRanges = %v, want dst unchanged", d, got)
		}
		if d.End() != 0 || d.Contains(c.Encode(5, 5)) {
			t.Errorf("%+v: End %d, Contains(5,5) %v: want an empty disk", d, d.End(), d.Contains(c.Encode(5, 5)))
		}
		if in, out := d.First(10, c.Size(), true), d.First(10, c.Size(), false); in != c.Size() || out != 10 {
			t.Errorf("%+v: First in %d, out %d, want %d and 10", d, in, out, c.Size())
		}
		if d.Meets(0, c.Size()) {
			t.Errorf("%+v: Meets the whole curve, want an empty disk", d)
		}
	}
	// Infinite centres and radii, and a negative radius, are disks like
	// any other: Meets agrees with First over the whole curve and over
	// one cell, and an infinite centre is inside only an infinite radius.
	inf := math.Inf(1)
	for _, tc := range [][3]float64{
		{inf, 5, 3}, {-inf, 5, inf}, {5, -inf, 1e300}, {inf, -inf, inf}, {nan, 5, inf},
		{5, 5, inf}, {5, 5, -1}, {-inf, 2, -inf}, {5, 5, 0},
	} {
		d := Disk{c, tc[0], tc[1], tc[2]}
		for _, iv := range [][2]uint64{{0, c.Size()}, {c.Encode(5, 5), c.Encode(5, 5) + 1}, {7, 9}, {c.Size() - 3, c.Size() + 9}} {
			if got, want := d.Meets(iv[0], iv[1]), d.First(iv[0], iv[1], true) < iv[1]; got != want {
				t.Errorf("%+v: Meets%v = %v, First says %v", d, iv, got, want)
			}
		}
		want := tc[2] == inf && tc[0] == tc[0] || tc[0] == 5 && tc[1] == 5 && tc[2] >= 0
		if got := d.Meets(0, c.Size()); got != want {
			t.Errorf("%+v: Meets the whole curve = %v, want %v", d, got, want)
		}
	}
}

func TestRangesDiskInfiniteRadius(t *testing.T) {
	c := New(16)
	want := []Range{{Lo: 0, Hi: c.Size()}}
	for _, centre := range [][2]float64{{5, 5}, {-1e9, 3.5}, {math.Inf(1), math.Inf(-1)}} {
		if got := c.RangesDisk(centre[0], centre[1], math.Inf(1)); !slices.Equal(got, want) {
			t.Errorf("RangesDisk(%v, +Inf) = %v, want the whole curve", centre, got)
		}
	}
	// An infinitely distant centre reaches nothing with a finite radius.
	if got := c.RangesDisk(math.Inf(1), 0, 1e100); got != nil {
		t.Errorf("RangesDisk(+Inf centre) = %v, want nil", got)
	}
}

// FuzzDisk holds the disk to the reference over arbitrary centres (NaN
// and infinities included) and radius sequences: r0, then each step
// scales the squared radius by step/200, so a sequence shrinks, repeats
// (200) and now and then grows (> 200).
func FuzzDisk(f *testing.F) {
	f.Add(uint8(3), 2.0, 5.0, 30.0, []byte{200, 100, 196, 0})
	f.Add(uint8(6), -3.5, 70.25, 9000.0, []byte{150, 150, 255, 10})
	f.Add(uint8(1), 0.5, 0.5, 0.5, []byte{200})
	f.Add(uint8(5), math.NaN(), 1.0, math.Inf(1), []byte{1})
	f.Add(uint8(6), 20.0, math.NaN(), 400.0, []byte{100, 50}) // a NaN centre under a finite radius
	f.Fuzz(func(t *testing.T, order uint8, qx, qy, r0 float64, steps []byte) {
		c := New(1 + uint(order)%7)
		if len(steps) > 12 {
			steps = steps[:12]
		}
		rng := rand.New(rand.NewSource(int64(len(steps))))
		r2 := r0
		checkDisk(t, Disk{c, qx, qy, r2}, rng)
		for _, s := range steps {
			r2 *= float64(s) / 200
			checkDisk(t, Disk{c, qx, qy, r2}, rng)
		}
	})
}

func BenchmarkAppendRangesDisk(b *testing.B) {
	c := New(8)
	for _, bc := range []struct {
		name string
		r    float64
	}{{"r3", 3}, {"r10", 10}, {"r30", 30}, {"r100", 100}} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []Range
			for i := 0; i < b.N; i++ {
				dst = c.AppendRangesDisk(dst[:0], 77, 190, bc.r)
			}
		})
	}
}

// knnRadii2 is the squared search radius at each shrink of one 5NN
// query at (77, 190) over dataset.Uniform(10000, 8, 1), capacity 64,
// tuned in at slot 1234.
var knnRadii2 = []float64{
	32609, 31925, 31697, 25925, 25529, 25514, 25497, 25092, 24869, 24608, 24505, 23953, 23440,
	23396, 23266, 23153, 23125, 23049, 22753, 22717, 22490, 22324, 22045, 21913, 21754, 21661,
	21578, 21402, 21130, 20996, 20618, 20609, 20485, 20354, 20353, 20228, 20122, 20105, 19777,
	19709, 19633, 19301, 19265, 19088, 18945, 18925, 18836, 18580, 18500, 18153, 17905, 17837,
	17828, 17425, 17285, 17060, 17041, 16913, 16858, 16658, 16570, 16528, 16385, 16354, 16325,
	16145, 12101, 11890, 11485, 11252, 11245, 10036, 9945, 9634, 9410, 9409, 9265, 9217, 9074,
	9050, 7109, 6877, 6649, 6525, 6469, 6121, 5933, 5905, 5877, 5818, 5800, 5669, 5618, 5594,
	5521, 5125, 4954, 4930, 4869, 4825, 4801, 4698, 4672, 4625, 4549, 4525, 4514, 4477, 4450,
	4410, 4306, 4274, 4165, 4138, 4105, 4097, 4050, 3985, 3978, 3940, 3866, 3825, 3677, 3656,
	3490, 3392, 3362, 3316, 3240, 3170, 3005, 2925, 2593, 2349, 2290, 2248, 2228, 2176, 2165,
	1805, 1658, 1586, 1556, 1429, 1381, 1322, 1285, 1250, 1201, 1157, 1109, 1069, 1037, 1013,
	1010, 977, 954, 890, 850, 821, 800, 761, 724, 722, 578, 557, 545, 533, 481, 421, 338, 333,
	325, 305, 298, 296, 290, 260, 241, 200, 197, 136, 89, 85, 74, 68, 53, 52, 50, 37, 36, 25,
	18, 17,
}

// TestDiskRecordedKNN replays the recorded sequence against the
// reference, so the benchmark below measures a path known to be exact.
func TestDiskRecordedKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r2 := range knnRadii2 {
		checkDisk(t, Disk{New(8), 77, 190, r2}, rng)
	}
}

// BenchmarkDiskFirst measures what a kNN client asks of its search disk
// per unit it evaluates: the first cell inside, and the first outside,
// of a frame-sized stretch of the curve (64 cells, the HC span of a
// frame of the replay index: 10 000 objects, order 8, capacity 64),
// over 64 stretches and every radius of the recorded sequence.
func BenchmarkDiskFirst(b *testing.B) {
	c := New(8)
	rng := rand.New(rand.NewSource(1))
	starts := make([]uint64, 64)
	for i := range starts {
		starts[i] = uint64(rng.Int63n(int64(c.Size() - 64)))
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r2 := range knnRadii2 {
			d := Disk{c, 77, 190, r2}
			for _, a := range starts {
				sink += d.First(a, a+64, true) + d.First(a, a+64, false)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(knnRadii2)*len(starts)*2), "ns/first")
	_ = sink
}

// BenchmarkDiskMeets measures the gap probe of a kNN unit evaluation:
// whether a frame-sized stretch of the curve meets the disk, over
// BenchmarkDiskFirst's stretches and radii.
func BenchmarkDiskMeets(b *testing.B) {
	c := New(8)
	rng := rand.New(rand.NewSource(1))
	starts := make([]uint64, 64)
	for i := range starts {
		starts[i] = uint64(rng.Int63n(int64(c.Size() - 64)))
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r2 := range knnRadii2 {
			d := Disk{c, 77, 190, r2}
			for _, a := range starts {
				if d.Meets(a, a+64) {
					sink++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(knnRadii2)*len(starts)), "ns/meets")
	_ = sink
}
