// Package hilbert implements the two-dimensional Hilbert space-filling
// curve used by DSI and HCI to linearize spatial data for broadcast.
//
// A curve of order k visits every cell of a 2^k x 2^k grid exactly once.
// Encode maps a cell coordinate to its position along the curve (its "HC
// value") and Decode inverts the mapping. The orientation matches the
// paper's running example (Figure 2): on an order-3 curve, cell (1, 1)
// has HC value 2.
//
// The package also provides exact decompositions of query regions into
// maximal contiguous HC ranges (Ranges for rectangles, RangesDisk for
// disks), which the DSI window algorithm and the HCI baseline rely on,
// and Disk, a kNN search disk the DSI client queries per stretch of the
// curve instead of decomposing it.
package hilbert

import (
	"fmt"
	"math/bits"
)

// MaxOrder is the largest supported curve order. 2*MaxOrder bits of HC
// value must fit in a uint64.
const MaxOrder = 31

// Curve is a Hilbert curve of a fixed order over the grid
// [0, 2^order) x [0, 2^order).
type Curve struct {
	order uint
}

// New returns a curve of the given order. It panics if order is zero or
// exceeds MaxOrder; curve order is a static configuration value, so a
// bad value is a programming error rather than a runtime condition.
func New(order uint) Curve {
	if order == 0 || order > MaxOrder {
		panic(fmt.Sprintf("hilbert: order %d out of range [1,%d]", order, MaxOrder))
	}
	return Curve{order: order}
}

// Order returns the curve order.
func (c Curve) Order() uint { return c.order }

// Side returns the grid side length 2^order.
func (c Curve) Side() uint32 { return 1 << c.order }

// Size returns the number of cells on the curve, 4^order.
func (c Curve) Size() uint64 { return 1 << (2 * c.order) }

// Encode returns the HC value of cell (x, y). Coordinates outside the
// grid panic: callers are expected to clamp to the grid first.
func (c Curve) Encode(x, y uint32) uint64 {
	side := c.Side()
	if x >= side || y >= side {
		panic(fmt.Sprintf("hilbert: cell (%d,%d) outside %dx%d grid", x, y, side, side))
	}
	nc, st := chunksFor(c.order)
	var d uint64
	for i := nc - 1; i >= 0; i-- {
		sh := uint(i * 4)
		xy := (x>>sh&15)<<4 | y>>sh&15
		e := encLUT[st][xy]
		d = d<<8 | uint64(e.v)
		st = e.next
	}
	return d
}

// encodeScalar is the bit-at-a-time reference implementation Encode's
// lookup tables are generated from (and verified against in tests).
func (c Curve) encodeScalar(x, y uint32) uint64 {
	var d uint64
	for s := c.Side() >> 1; s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant so the recursion sees a canonical sub-curve.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// Decode returns the cell coordinate of HC value d. Values outside the
// curve panic.
func (c Curve) Decode(d uint64) (x, y uint32) {
	if d >= c.Size() {
		panic(fmt.Sprintf("hilbert: HC value %d outside curve of size %d", d, c.Size()))
	}
	nc, st := chunksFor(c.order)
	for i := nc - 1; i >= 0; i-- {
		e := decLUT[st][uint8(d>>(8*uint(i)))]
		x = x<<4 | uint32(e.v>>4)
		y = y<<4 | uint32(e.v&15)
		st = e.next
	}
	return x, y
}

// decodeScalar is the bit-at-a-time reference implementation Decode is
// verified against in tests.
func (c Curve) decodeScalar(d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < c.Side(); s <<= 1 {
		rx := uint32(t>>1) & 1
		ry := uint32(t^uint64(rx)) & 1
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t >>= 2
	}
	return x, y
}

// Range is a half-open interval [Lo, Hi) of HC values.
type Range struct {
	Lo, Hi uint64
}

// Len returns the number of cells in the range.
func (r Range) Len() uint64 { return r.Hi - r.Lo }

// Contains reports whether the HC value v lies in the range.
func (r Range) Contains(v uint64) bool { return v >= r.Lo && v < r.Hi }

// Overlaps reports whether two ranges share at least one value.
func (r Range) Overlaps(o Range) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// quadOrder drives the curve-ordered subdivision. The 2D Hilbert curve
// has four reachable orientations (identity, swap, point reflection,
// and their composition — derived from the rotations in encodeScalar);
// for each, the table lists the four child quadrants in the order the
// curve visits them (dx, dy select the quadrant's corner offset in
// half-side units) and the orientation of the curve inside each child.
var quadOrder = [4][4]struct{ dx, dy, next uint8 }{
	{{0, 0, 1}, {0, 1, 0}, {1, 1, 0}, {1, 0, 3}}, // identity
	{{0, 0, 0}, {1, 0, 1}, {1, 1, 1}, {0, 1, 2}}, // swap
	{{1, 1, 3}, {1, 0, 2}, {0, 0, 2}, {0, 1, 1}}, // invert both
	{{1, 1, 2}, {0, 1, 3}, {0, 0, 3}, {1, 0, 0}}, // swap + invert
}

// appendRun appends the half-open HC run [lo, hi) to dst, coalescing
// with the last range of the tail dst[base:] when adjacent. Runs arrive
// in strictly increasing curve order, so adjacency is the only merge
// case.
func appendRun(dst []Range, base int, lo, hi uint64) []Range {
	if n := len(dst); n > base && dst[n-1].Hi == lo {
		dst[n-1].Hi = hi
		return dst
	}
	return append(dst, Range{Lo: lo, Hi: hi})
}

// Ranges decomposes the inclusive cell rectangle [x0,x1] x [y0,y1] into
// maximal contiguous HC ranges, sorted ascending. The rectangle is
// intersected with the grid: a max corner past the grid's side stands
// for its last row or column, and a rectangle that lies wholly past
// the grid (its min corner at or past the side on either axis) or is
// inverted is empty and yields nil.
func (c Curve) Ranges(x0, y0, x1, y1 uint32) []Range {
	return c.AppendRanges(nil, x0, y0, x1, y1)
}

// AppendRanges is Ranges appending into dst (which may be nil or a
// recycled buffer): the new ranges occupy dst[len(dst):]; elements
// already in dst are left untouched.
//
// The decomposition descends quadrants in curve-visit order
// (quadOrder), so blocks surface with strictly increasing HC values:
// each block's base is the parent's base plus its visit rank times the
// child area — no per-block Encode — and adjacent blocks coalesce with
// a single comparison instead of a sort-and-merge pass. Its cost
// follows the rectangle's perimeter in cells.
func (c Curve) AppendRanges(dst []Range, x0, y0, x1, y1 uint32) []Range {
	side := c.Side()
	// A max corner past the grid moves onto its last row or column; a
	// min corner past it then lies beyond the max one.
	r := rect{x0, y0, min(x1, side-1), min(y1, side-1)}
	if r.x1 < r.x0 || r.y1 < r.y0 {
		return dst
	}
	return r.descend(dst, len(dst), 0, 0, side, 0, 0)
}

// rect is a non-empty inclusive cell rectangle within the grid.
type rect struct{ x0, y0, x1, y1 uint32 }

// halves returns, as bit i for half i, which of the two halves of the
// cells [a, a+2h) lie inside the rectangle's [lo, hi] on one axis, and
// which meet it. The cells meet [lo, hi] as a whole, so the lower half
// meets it when it reaches lo and the upper one when it starts by hi.
func halves(a, h, lo, hi uint32) (in, meet uint8) {
	m := a + h // first cell of the upper half
	return b2u(a >= lo && m <= hi+1) | b2u(m >= lo && m+h <= hi+1)<<1, b2u(m > lo) | b2u(m <= hi)<<1
}

func b2u(c bool) uint8 {
	if c {
		return 1
	}
	return 0
}

// visitOrder turns the halves of a block's two axes into a mask over its
// quadrants in curve-visit order: bit k is set when both halves of the
// k-th quadrant the curve visits are set.
func visitOrder(state, xb, yb uint8) uint8 {
	pos := (xb | xb<<2) & ((yb&1)*3 | (yb>>1)*12) // bit dx + 2*dy
	return visitMask[state][pos]
}

// visitMask[state][pos] reorders a mask over quadrant positions (bit
// dx + 2*dy) into curve-visit order under the orientation state.
var visitMask = func() (t [4][16]uint8) {
	for st := range t {
		for pos := range t[st] {
			for k, q := range quadOrder[st] {
				if pos>>(q.dx+2*q.dy)&1 == 1 {
					t[st][pos] |= 1 << k
				}
			}
		}
	}
	return t
}()

// descend appends the rectangle's runs within the block of side s >= 2
// at (x0, y0), first cell lo, which meets the rectangle: the grid, or a
// quadrant the rectangle cuts. It classifies the block's two x halves
// and two y halves once; from those four answers each quadrant is
// inside, outside or cut. The quadrants meeting the rectangle are taken
// in curve order, runs merging into the tail dst[base:], and the cut
// ones are descended. A quadrant of side 1 is one cell, never cut.
func (r *rect) descend(dst []Range, base int, x0, y0, s uint32, lo uint64, state uint8) []Range {
	h := s >> 1
	xin, xmeet := halves(x0, h, r.x0, r.x1)
	yin, ymeet := halves(y0, h, r.y0, r.y1)
	in, meet := visitOrder(state, xin, yin), visitOrder(state, xmeet, ymeet)
	area := uint64(h) * uint64(h)
	for ; meet != 0; meet &= meet - 1 {
		k := bits.TrailingZeros8(meet)
		qlo := lo + uint64(k)*area
		if in>>k&1 == 1 {
			dst = appendRun(dst, base, qlo, qlo+area)
			continue
		}
		q := &quadOrder[state][k]
		dst = r.descend(dst, base, x0+uint32(q.dx)*h, y0+uint32(q.dy)*h, h, qlo, q.next)
	}
	return dst
}
