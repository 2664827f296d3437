package hilbert

import (
	"math"
	"math/bits"
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
	return Disk{Curve: c, Qx: qx, Qy: qy, R2: r * r}.AppendRanges(dst)
}

// Disk is the closed disk of squared radius R2 around (Qx, Qy) on the
// grid of Curve, as a set of cells: (x, y) belongs to it iff
// float64(dx*dx)+float64(dy*dy) <= R2 with dx = x-Qx, dy = y-Qy. A NaN
// centre or radius holds no cell.
//
// A Disk is a value: a kNN search space that shrinks is a new Disk per
// radius, and the questions the search asks of it — is this cell
// inside, where is the next cell inside (or outside) in this stretch of
// the curve — are answered where they are asked, by a curve-ordered
// descent over that stretch, without decomposing the rest of the disk.
//
// Blocks are classified by the squared distance from the centre to
// their nearest and farthest points. Rounding is monotone, so a block
// classified inside (outside) as a whole has all (none) of its cells
// inside: every answer, and the maximal runs AppendRanges returns, are
// those of the cell set, whatever the subdivision.
type Disk struct {
	Curve  Curve
	Qx, Qy float64
	R2     float64
}

// void reports whether the disk holds no cell because a coordinate or
// the radius is NaN. Its blocks would classify as neither inside nor
// outside, down to single cells, so every descent checks this first.
func (d *Disk) void() bool { return d.R2 != d.R2 || d.Qx != d.Qx || d.Qy != d.Qy }

// Contains reports whether the cell of HC value hc lies in the disk.
func (d Disk) Contains(hc uint64) bool {
	x, y := d.Curve.Decode(hc)
	dx, dy := float64(x)-d.Qx, float64(y)-d.Qy
	return float64(dx*dx)+float64(dy*dy) <= d.R2
}

// AppendRanges appends the maximal HC ranges of the disk to dst, sorted
// ascending: one subdivision of the grid, whose cost follows the disk's
// perimeter in cells. Elements already in dst are left untouched.
func (d Disk) AppendRanges(dst []Range) []Range {
	if d.void() {
		return dst
	}
	s := d.Curve.Side()
	near, far := d.bounds(0, 0, s)
	switch {
	case far <= d.R2:
		return append(dst, Range{Lo: 0, Hi: d.Curve.Size()})
	case near > d.R2:
		return dst
	}
	return d.descend(dst, len(dst), 0, 0, s, 0, 0)
}

// First returns the first cell of [a, b) that lies inside the disk (in)
// or outside it (!in), b when there is none. Cells at or beyond the
// curve's end do not exist. The descent starts at the smallest aligned
// block holding the interval, so its cost follows the interval's length
// and the boundary inside it, not the grid.
func (d Disk) First(a, b uint64, in bool) uint64 {
	end := min(b, d.Curve.Size())
	if a >= end {
		return b
	}
	if d.void() {
		if in {
			return b
		}
		return a
	}
	// The block: side 2^lvl, reached from the root along the quadrant
	// digits of a, two bits per level.
	lvl := uint(bits.Len64(a^(end-1))+1) / 2
	var x0, y0 uint32
	var state uint8
	for l := d.Curve.order; l > lvl; l-- {
		q := &quadOrder[state][a>>(2*(l-1))&3]
		x0 += uint32(q.dx) << (l - 1)
		y0 += uint32(q.dy) << (l - 1)
		state = q.next
	}
	s := uint32(1) << lvl
	near, far := d.bounds(x0, y0, s)
	switch {
	case far <= d.R2 && in, near > d.R2 && !in:
		return a
	case far <= d.R2, near > d.R2:
		return b
	}
	if r := d.first(a, end, in, x0, y0, s, a&^(uint64(s)*uint64(s)-1), state); r < end {
		return r
	}
	return b
}

// End returns one past the last cell inside the disk, 0 when it holds
// none: the end of the last range AppendRanges would return.
func (d Disk) End() uint64 {
	if d.void() {
		return 0
	}
	s := d.Curve.Side()
	near, far := d.bounds(0, 0, s)
	switch {
	case far <= d.R2:
		return d.Curve.Size()
	case near > d.R2:
		return 0
	}
	return d.end(0, 0, s, 0, 0)
}

// bounds returns the squared distances from the centre to the nearest
// and to the farthest point of the block of side s at (x0, y0).
func (d *Disk) bounds(x0, y0, s uint32) (near2, far2 float64) {
	nx, fx := span2(float64(x0), float64(x0+s-1), d.Qx)
	ny, fy := span2(float64(y0), float64(y0+s-1), d.Qy)
	return nx + ny, fx + fy
}

// quads classifies the four quadrants of side h of a block at (x0, y0)
// from eight numbers: the squared distance from the centre to the
// nearest (farthest) point of a quadrant is the sum of the two 1-D ones
// of its x and y halves, indexed by the quadrant's dx and dy.
type quads struct{ nearX, farX, nearY, farY [2]float64 }

func (qs *quads) set(d *Disk, x0, y0, h uint32) {
	qs.nearX[0], qs.farX[0] = span2(float64(x0), float64(x0+h-1), d.Qx)
	qs.nearX[1], qs.farX[1] = span2(float64(x0+h), float64(x0+2*h-1), d.Qx)
	qs.nearY[0], qs.farY[0] = span2(float64(y0), float64(y0+h-1), d.Qy)
	qs.nearY[1], qs.farY[1] = span2(float64(y0+h), float64(y0+2*h-1), d.Qy)
}

// descend appends the disk's runs within the block of side s >= 2 at
// (x0, y0), which the boundary crosses, visiting its quadrants in curve
// order and merging into the tail dst[base:]. A quadrant of side 1 is a
// single point, nearest = farthest, and is never subdivided.
func (d *Disk) descend(dst []Range, base int, x0, y0, s uint32, lo uint64, state uint8) []Range {
	h := s >> 1
	var qs quads
	qs.set(d, x0, y0, h)
	area := uint64(h) * uint64(h)
	for _, q := range &quadOrder[state] {
		if qs.nearX[q.dx&1]+qs.nearY[q.dy&1] <= d.R2 {
			if qs.farX[q.dx&1]+qs.farY[q.dy&1] <= d.R2 {
				dst = appendRun(dst, base, lo, lo+area)
			} else {
				dst = d.descend(dst, base, x0+uint32(q.dx)*h, y0+uint32(q.dy)*h, h, lo, q.next)
			}
		}
		lo += area
	}
	return dst
}

// first is First's descent into the block of side s >= 2 at (x0, y0),
// first cell lo, which the boundary crosses: the quadrants meeting
// [a, b) in curve order, a wholly matching one answering at once and a
// crossed one searched in turn. It returns b when no cell matches.
func (d *Disk) first(a, b uint64, in bool, x0, y0, s uint32, lo uint64, state uint8) uint64 {
	h := s >> 1
	var qs quads
	qs.set(d, x0, y0, h)
	area := uint64(h) * uint64(h)
	for _, q := range &quadOrder[state] {
		if lo >= b {
			break
		}
		if next := lo + area; next > a {
			inside := qs.farX[q.dx&1]+qs.farY[q.dy&1] <= d.R2
			outside := qs.nearX[q.dx&1]+qs.nearY[q.dy&1] > d.R2
			switch {
			case inside == in && (inside || outside):
				return max(lo, a)
			case !inside && !outside:
				if r := d.first(a, b, in, x0+uint32(q.dx)*h, y0+uint32(q.dy)*h, h, lo, q.next); r < b {
					return r
				}
			}
		}
		lo += area
	}
	return b
}

// end is End's descent into the block of side s >= 2 at (x0, y0), first
// cell lo, which the boundary crosses: its quadrants in reverse curve
// order, 0 when none holds a cell inside (a crossed block may not).
func (d *Disk) end(x0, y0, s uint32, lo uint64, state uint8) uint64 {
	h := s >> 1
	var qs quads
	qs.set(d, x0, y0, h)
	area := uint64(h) * uint64(h)
	for r := 3; r >= 0; r-- {
		q := &quadOrder[state][r]
		if qs.nearX[q.dx&1]+qs.nearY[q.dy&1] > d.R2 {
			continue
		}
		qlo := lo + uint64(r)*area
		if qs.farX[q.dx&1]+qs.farY[q.dy&1] <= d.R2 {
			return qlo + area
		}
		if e := d.end(x0+uint32(q.dx)*h, y0+uint32(q.dy)*h, h, qlo, q.next); e > 0 {
			return e
		}
	}
	return 0
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
