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
// the curve, does this stretch hold a cell inside at all — are answered
// where they are asked, by a curve-ordered descent over that stretch,
// without decomposing the rest of the disk.
//
// Blocks are classified by the squared distance from the centre to
// their nearest and farthest points. Rounding is monotone, so a block
// classified inside (outside) as a whole has all (none) of its cells
// inside: every answer, and the maximal runs AppendRanges returns, are
// those of the cell set, whatever the subdivision. Meets bounds a block
// by its nearest and farthest cells rather than points, which is exact:
// a block it finds within R2 holds a cell inside.
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
	x0, y0, s, lo, state := d.Curve.block(a, end)
	near, far := d.bounds(x0, y0, s)
	switch {
	case far <= d.R2 && in, near > d.R2 && !in:
		return a
	case far <= d.R2, near > d.R2:
		return b
	}
	if r := d.first(a, end, in, x0, y0, s, lo, state); r < end {
		return r
	}
	return b
}

// Meets reports whether a cell of [a, b) lies inside the disk, the
// answer of First(a, b, true) < b without finding the cell. Its block
// bound is cell-exact: per axis, the grid coordinate of a block nearest
// the centre is the centre rounded and clamped to the block, and the
// squared distance of that cell is formed exactly as Contains forms it,
// so a block's bound is within R2 exactly when its nearest cell is
// inside, wherever the centre lies. A block [a, b) covers then answers
// at once, and the descent enters only blocks holding an inside cell:
// it comes back empty only along the two ends of the interval.
func (d Disk) Meets(a, b uint64) bool {
	end := min(b, d.Curve.Size())
	if a >= end || d.void() {
		return false
	}
	side := float64(d.Curve.Side())
	n := nearCells{
		d:  &d,
		rx: int64(min(max(math.Round(d.Qx), -1), side)),
		ry: int64(min(max(math.Round(d.Qy), -1), side)),
	}
	x0, y0, s, lo, state := d.Curve.block(a, end)
	if near2(x0, s, n.rx, d.Qx)+near2(y0, s, n.ry, d.Qy) > d.R2 {
		return false
	}
	if a == lo && end-lo == uint64(s)*uint64(s) || n.far2(x0, y0, s) <= d.R2 {
		return true
	}
	return n.meets(a, end, x0, y0, s, lo, state)
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

// block returns the smallest aligned block holding [a, end), a < end:
// its corner, side 2^lvl, first cell and curve state, reached from the
// root along the quadrant digits of a, two bits per level.
func (c Curve) block(a, end uint64) (x0, y0, s uint32, lo uint64, state uint8) {
	lvl := uint(bits.Len64(a^(end-1))+1) / 2
	for l := c.order; l > lvl; l-- {
		q := &quadOrder[state][a>>(2*(l-1))&3]
		x0 += uint32(q.dx) << (l - 1)
		y0 += uint32(q.dy) << (l - 1)
		state = q.next
	}
	s = uint32(1) << lvl
	return x0, y0, s, a &^ (uint64(s)*uint64(s) - 1), state
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

// nearCells is one Meets probe: the disk, and its centre rounded to
// the nearest grid coordinate per axis, clamped just outside the grid
// so that it fits an integer for any centre.
type nearCells struct {
	d      *Disk
	rx, ry int64
}

// near2 returns the squared distance from q, whose rounded coordinate
// is r, to the nearest grid coordinate of [lo, lo+s): r clamped to the
// interval, squared as Contains squares it.
func near2(lo, s uint32, r int64, q float64) float64 {
	dx := float64(min(max(r, int64(lo)), int64(lo)+int64(s)-1)) - q
	return float64(dx * dx)
}

// far2 returns the squared distance from the centre to the farthest
// cell of the block of side s at (x0, y0), formed as Contains forms it:
// the block is inside as a whole exactly when it is within R2.
func (n *nearCells) far2(x0, y0, s uint32) float64 {
	d := n.d
	dx0, dx1 := float64(x0)-d.Qx, float64(x0+s-1)-d.Qx
	dy0, dy1 := float64(y0)-d.Qy, float64(y0+s-1)-d.Qy
	return max(float64(dx0*dx0), float64(dx1*dx1)) + max(float64(dy0*dy0), float64(dy1*dy1))
}

// meets is Meets' descent into the block of side s >= 2 at (x0, y0),
// first cell lo: the quadrants meeting [a, b) in curve order whose
// nearest cell is inside, a covered one answering at once and a cut one
// searched in turn unless it is inside as a whole. A quadrant of side 1
// is one cell, always covered.
func (n *nearCells) meets(a, b uint64, x0, y0, s uint32, lo uint64, state uint8) bool {
	d := n.d
	h := s >> 1
	nx := [2]float64{near2(x0, h, n.rx, d.Qx), near2(x0+h, h, n.rx, d.Qx)}
	ny := [2]float64{near2(y0, h, n.ry, d.Qy), near2(y0+h, h, n.ry, d.Qy)}
	area := uint64(h) * uint64(h)
	for _, q := range &quadOrder[state] {
		if lo >= b {
			break
		}
		if next := lo + area; next > a && nx[q.dx&1]+ny[q.dy&1] <= d.R2 {
			qx, qy := x0+uint32(q.dx)*h, y0+uint32(q.dy)*h
			if lo >= a && next <= b || n.far2(qx, qy, h) <= d.R2 || n.meets(a, b, qx, qy, h, lo, q.next) {
				return true
			}
		}
		lo += area
	}
	return false
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
