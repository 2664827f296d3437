package hilbert

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diskOracle is the reference the disk cover is held to: a block
// classifier of the closed disk of squared radius r2 around (qx, qy),
// run through the generic AppendRangesFunc.
type diskOracle struct {
	qx, qy, r2 float64
}

func (d *diskOracle) classify(x0, y0, x1, y1 uint32) Region {
	min := rectPointMinDist2(float64(x0), float64(y0), float64(x1), float64(y1), d.qx, d.qy)
	if min > d.r2 {
		return Outside
	}
	max := rectPointMaxDist2(float64(x0), float64(y0), float64(x1), float64(y1), d.qx, d.qy)
	if max <= d.r2 {
		return Inside
	}
	return Partial
}

// ranges is the reference decomposition. A NaN anywhere is at no
// distance from any cell.
func (d *diskOracle) ranges(c Curve) []Range {
	if d.qx != d.qx || d.qy != d.qy || d.r2 != d.r2 {
		return nil
	}
	return c.AppendRangesFunc(nil, d.classify)
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

// checkCover drives one cover through the radius sequence and requires
// every Shrink to equal the reference decomposition of that radius,
// with whatever dst held before left in place.
func checkCover(t testing.TB, c Curve, qx, qy float64, r2s []float64) {
	t.Helper()
	prefix := []Range{{Lo: 7, Hi: 9}}
	var dc DiskCover
	dc.Reset(c, qx, qy)
	defer dc.Release()
	for i, r2 := range r2s {
		got := dc.Shrink(slices.Clone(prefix), r2)
		want := (&diskOracle{qx, qy, r2}).ranges(c)
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
			t.Fatalf("order %d centre (%v,%v) radii² %v: Shrink %d = %v, want %v after %v",
				c.Order(), qx, qy, r2s[:i+1], i, got, want, prefix)
		}
	}
}

// TestDiskCoverMatchesGeneric pins the cover, step by step along
// shrinking radius sequences, to the generic decomposition it replaced.
func TestDiskCoverMatchesGeneric(t *testing.T) {
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
			// The squared distance to a random cell lies exactly on the
			// boundary of the closed disk.
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
			r2s = append(r2s, 0, 0)
			checkCover(t, c, qx, qy, r2s)
		}
	}
}

// TestDiskCoverGrownRadius pins the choice made for a radius that grows
// between two Shrink calls: the cover starts over, so the result is the
// decomposition of the larger disk and later shrinks refine that one.
func TestDiskCoverGrownRadius(t *testing.T) {
	checkCover(t, New(6), 20, 41.5, []float64{100, 9, 400, 400, 25, math.Inf(1), 0, 1})
}

func TestRangesDiskNaN(t *testing.T) {
	// At order 16 a decomposition that subdivided every block would make
	// 4^16 classifications; these return without descending at all.
	c := New(16)
	nan := math.NaN()
	dst := []Range{{Lo: 1, Hi: 2}}
	for _, tc := range [][3]float64{{5, 5, nan}, {nan, 5, 3}, {5, nan, 3}, {nan, nan, nan}} {
		if got := c.AppendRangesDisk(dst, tc[0], tc[1], tc[2]); !slices.Equal(got, dst) {
			t.Errorf("AppendRangesDisk(%v) = %v, want dst unchanged", tc, got)
		}
	}
	var dc DiskCover
	dc.Reset(c, 5, 5)
	defer dc.Release()
	if got := dc.Shrink(dst, nan); !slices.Equal(got, dst) {
		t.Errorf("Shrink(NaN) = %v, want dst unchanged", got)
	}
	// The NaN left the cover as it was: the next radius decomposes.
	if got, want := dc.Shrink(nil, 4), c.RangesDisk(5, 5, 2); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("Shrink after NaN = %v, want %v", got, want)
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

// FuzzDiskCover holds the cover to the reference decomposition over
// arbitrary centres (NaN and infinities included) and radius sequences:
// r0, then each step scales the squared radius by step/200, so a
// sequence shrinks, repeats (200) and now and then grows (> 200).
func FuzzDiskCover(f *testing.F) {
	f.Add(uint8(3), 2.0, 5.0, 30.0, []byte{200, 100, 196, 0})
	f.Add(uint8(6), -3.5, 70.25, 9000.0, []byte{150, 150, 255, 10})
	f.Add(uint8(1), 0.5, 0.5, 0.5, []byte{200})
	f.Add(uint8(5), math.NaN(), 1.0, math.Inf(1), []byte{1})
	f.Fuzz(func(t *testing.T, order uint8, qx, qy, r0 float64, steps []byte) {
		c := New(1 + uint(order)%7)
		if len(steps) > 12 {
			steps = steps[:12]
		}
		r2s := []float64{r0}
		for _, s := range steps {
			r2s = append(r2s, r2s[len(r2s)-1]*float64(s)/200)
		}
		checkCover(t, c, qx, qy, r2s)
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

// TestDiskCoverRecordedKNN replays the recorded sequence against the
// reference, so the benchmark below measures a path known to be exact.
func TestDiskCoverRecordedKNN(t *testing.T) {
	checkCover(t, New(8), 77, 190, knnRadii2)
}

// BenchmarkDiskCoverShrink measures one kNN query's worth of search
// disk updates: a Reset and every Shrink of the recorded sequence.
func BenchmarkDiskCoverShrink(b *testing.B) {
	c := New(8)
	var dc DiskCover
	var dst []Range
	for i := 0; i < b.N; i++ {
		dc.Reset(c, 77, 190)
		for _, r2 := range knnRadii2 {
			dst = dc.Shrink(dst[:0], r2)
		}
	}
	dc.Release()
	b.ReportMetric(float64(len(knnRadii2)), "shrinks/op")
}
