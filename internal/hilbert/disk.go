package hilbert

import (
	"math"
	"sync"
)

// RangesDisk decomposes the set of cells whose coordinates lie within
// Euclidean distance r of (qx, qy) into maximal contiguous HC ranges.
// Distance is measured between cell coordinates (objects live exactly on
// cells), and the disk is closed: cells at distance exactly r are inside.
func (c Curve) RangesDisk(qx, qy float64, r float64) []Range {
	return c.AppendRangesDisk(nil, qx, qy, r)
}

// AppendRangesDisk is RangesDisk appending into dst (which may be nil
// or a recycled buffer). A negative or NaN radius, like a NaN centre,
// leaves dst unchanged; r = +Inf yields the whole curve.
func (c Curve) AppendRangesDisk(dst []Range, qx, qy float64, r float64) []Range {
	if !(r >= 0) {
		return dst
	}
	var dc DiskCover
	dc.Reset(c, qx, qy)
	dst = dc.Shrink(dst, r*r)
	dc.Release()
	return dst
}

// DiskCover decomposes a disk whose radius shrinks, as a kNN search
// space does, without starting over at each radius. It remembers the
// aligned blocks that made up the last decomposition, in curve order,
// each with the squared distance of its farthest corner: under a
// smaller radius a block whose farthest corner is still within reach
// is kept with one comparison, and only the blocks the new boundary
// crosses are subdivided again.
//
// A cell (x, y) belongs to the disk iff float64(dx*dx)+float64(dy*dy)
// <= r2 with dx = |x-qx|, dy = |y-qy|. Rounding is monotone, so a block
// is kept (dropped) whole only when that holds for all (none) of its
// cells: the cell set does not depend on how the grid was subdivided or
// on the radii seen before, and its maximal runs are unique. Shrink
// therefore returns, range for range, what AppendRangesFunc returns for
// a classifier of the same disk.
//
// Reset must precede the first Shrink; Release hands the block buffers
// back for other covers to use. The zero value holds nothing.
type DiskCover struct {
	curve  Curve
	qx, qy float64
	r2     float64 // squared radius of the last Shrink, +Inf after Reset
	base   int     // len(dst) on entry to the Shrink in progress
	buf    *coverBufs
}

// coverBlock is a qblock lying wholly inside the disk, with the squared
// distance from the centre to its farthest corner.
type coverBlock struct {
	lo        uint64
	far2      float64
	x0, y0, s uint32
	state     uint8
}

// coverBufs holds the blocks of the last decomposition and the buffer
// the next one is written to.
type coverBufs struct{ cur, next []coverBlock }

// coverPool recycles block buffers across covers, as stackPool does for
// subdivision stacks: a session that runs one kNN query does not pay
// for buffers of its own.
var coverPool = sync.Pool{New: func() any { return new(coverBufs) }}

// Reset points the cover at a new disk centre on curve c. The cover
// becomes the whole grid, the decomposition of an unbounded disk, so
// the first Shrink is a decomposition from scratch.
func (dc *DiskCover) Reset(c Curve, qx, qy float64) {
	if dc.buf == nil {
		dc.buf = coverPool.Get().(*coverBufs)
	}
	dc.curve, dc.qx, dc.qy = c, qx, qy
	dc.whole()
}

// whole makes the cover the single block of the entire grid, inside a
// disk of unbounded radius.
func (dc *DiskCover) whole() {
	dc.r2 = math.Inf(1)
	dc.buf.cur = append(dc.buf.cur[:0], coverBlock{s: dc.curve.Side(), far2: math.Inf(1)})
}

// Release returns the cover's buffers to the pool. The cover must be
// Reset before it is used again.
func (dc *DiskCover) Release() {
	if dc.buf != nil {
		coverPool.Put(dc.buf)
		dc.buf = nil
	}
}

// Shrink appends to dst the maximal HC ranges of the closed disk of
// squared radius r2 around the cover's centre and narrows the cover to
// it. The cost is proportional to the blocks kept plus the perimeter of
// the region between the previous radius and this one. A radius larger
// than the previous one is decomposed from scratch. A NaN radius or
// centre is at no distance from any cell: dst and the cover are left
// unchanged.
func (dc *DiskCover) Shrink(dst []Range, r2 float64) []Range {
	if r2 != r2 || dc.qx != dc.qx || dc.qy != dc.qy {
		return dst
	}
	if r2 > dc.r2 {
		dc.whole()
	}
	dc.r2 = r2
	dc.base = len(dst)
	b := dc.buf
	b.next = b.next[:0]
	for i := range b.cur {
		blk := &b.cur[i]
		switch {
		case blk.far2 <= r2:
			dst = appendRun(dst, dc.base, blk.lo, blk.lo+uint64(blk.s)*uint64(blk.s))
			b.next = append(b.next, *blk)
		case blk.s > 1:
			dst = dc.descend(dst, blk.x0, blk.y0, blk.s, blk.lo, blk.state)
		}
	}
	b.cur, b.next = b.next, b.cur
	return dst
}

// descend subdivides the block of side s >= 2 at (x0, y0), which the
// disk boundary may cross, visiting its quadrants in curve order. The
// squared distance from the centre to the nearest (farthest) point of a
// quadrant is the sum of the two 1-D ones of its x and y halves, so all
// four quadrants are classified from eight numbers. A quadrant of side
// 1 is a single point, nearest = farthest, and is never subdivided.
func (dc *DiskCover) descend(dst []Range, x0, y0, s uint32, lo uint64, state uint8) []Range {
	h := s >> 1
	var nearX, farX, nearY, farY [2]float64
	nearX[0], farX[0] = span2(float64(x0), float64(x0+h-1), dc.qx)
	nearX[1], farX[1] = span2(float64(x0+h), float64(x0+s-1), dc.qx)
	nearY[0], farY[0] = span2(float64(y0), float64(y0+h-1), dc.qy)
	nearY[1], farY[1] = span2(float64(y0+h), float64(y0+s-1), dc.qy)
	area := uint64(h) * uint64(h)
	for _, q := range &quadOrder[state] {
		if nearX[q.dx&1]+nearY[q.dy&1] <= dc.r2 {
			if far2 := farX[q.dx&1] + farY[q.dy&1]; far2 <= dc.r2 {
				dst = appendRun(dst, dc.base, lo, lo+area)
				// Written field by field in place: a block assembled on the
				// stack and copied stalls on store forwarding.
				next := append(dc.buf.next, coverBlock{})
				blk := &next[len(next)-1]
				blk.lo, blk.far2, blk.s, blk.state = lo, far2, h, q.next
				blk.x0, blk.y0 = x0+uint32(q.dx)*h, y0+uint32(q.dy)*h
				dc.buf.next = next
			} else {
				dst = dc.descend(dst, x0+uint32(q.dx)*h, y0+uint32(q.dy)*h, h, lo, q.next)
			}
		}
		lo += area
	}
	return dst
}

// span2 returns the squared distances from q to the nearest and to the
// farthest point of the interval [a, b], a <= b. Which end is which
// depends on where q lies, differently at every block of a descent, so
// the selection is done on the bit patterns instead of with branches a
// predictor cannot learn: the nearest point is an end only when q lies
// beyond it (the difference is negative, its sign bit spread into a
// mask), and the farthest end is the one with the larger square, squares
// being non-negative floats, which order as their bits do.
func span2(a, b, q float64) (near2, far2 float64) {
	fromA, toB := q-a, b-q // both >= 0 iff q lies in [a, b]
	a2, b2 := math.Float64bits(fromA*fromA), math.Float64bits(toB*toB)
	near := a2&uint64(int64(math.Float64bits(fromA))>>63) | b2&uint64(int64(math.Float64bits(toB))>>63)
	return math.Float64frombits(near), math.Float64frombits(max(a2, b2))
}
