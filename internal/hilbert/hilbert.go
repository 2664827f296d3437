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
// maximal contiguous HC ranges (Ranges and RangesFunc for rectangles
// and caller-defined regions, DiskCover for the shrinking disk of a kNN
// search), which both the DSI window/kNN algorithms and the HCI
// baseline rely on.
package hilbert

import (
	"fmt"
	"sync"
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

// RegionFunc classifies an axis-aligned block of cells
// [x0,x1] x [y0,y1] (inclusive bounds) against a query region.
type RegionFunc func(x0, y0, x1, y1 uint32) Region

// Region is the classification of a cell block against a query region.
type Region int

const (
	// Outside means no cell of the block can satisfy the query region.
	Outside Region = iota
	// Inside means every cell of the block satisfies the query region.
	Inside
	// Partial means the block must be subdivided.
	Partial
)

// RangesFunc decomposes the set of cells classified Inside by the region
// function into maximal contiguous HC ranges, sorted ascending. The
// classifier must be consistent: a block classified Inside (Outside) must
// have all (no) cells inside. The decomposition subdivides quadrants,
// so its cost is proportional to the region's perimeter in cells.
func (c Curve) RangesFunc(region RegionFunc) []Range {
	return c.AppendRangesFunc(nil, region)
}

// qblock is a pending block of the iterative quadrant subdivision: its
// lower-left corner and side, plus the HC value of its first cell and
// the curve orientation inside it.
type qblock struct {
	x0, y0, s uint32
	lo        uint64
	state     uint8
}

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

// stackPool recycles subdivision stacks across decompositions, so a
// warm query path allocates nothing beyond growth of the caller's
// destination buffer.
var stackPool = sync.Pool{New: func() any {
	s := make([]qblock, 0, 4*MaxOrder)
	return &s
}}

// AppendRangesFunc is RangesFunc appending into dst (which may be nil
// or a recycled buffer): the new ranges occupy dst[len(dst):], sorted
// and merged; previously present elements are left untouched.
//
// The subdivision descends quadrants in curve-visit order (quadOrder),
// so blocks surface with strictly increasing HC values: each block's
// base is the parent's base plus its visit rank times the child area —
// no per-block Encode — and adjacent blocks coalesce with a single
// comparison instead of a sort-and-merge pass over the tail.
func (c Curve) AppendRangesFunc(dst []Range, region RegionFunc) []Range {
	base := len(dst)
	sp := stackPool.Get().(*[]qblock)
	stack := append((*sp)[:0], qblock{0, 0, c.Side(), 0, 0})
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch region(b.x0, b.y0, b.x0+b.s-1, b.y0+b.s-1) {
		case Outside:
		case Inside:
			dst = appendRun(dst, base, b.lo, b.lo+uint64(b.s)*uint64(b.s))
		default:
			if b.s == 1 {
				// A 1x1 block classified Partial is a classifier bug;
				// treat as inside to stay conservative (never lose a
				// cell).
				dst = appendRun(dst, base, b.lo, b.lo+1)
				continue
			}
			h := b.s >> 1
			area := uint64(h) * uint64(h)
			q := &quadOrder[b.state]
			// Push in reverse visit order so pops follow the curve.
			for r := 3; r >= 0; r-- {
				stack = append(stack, qblock{
					b.x0 + uint32(q[r].dx)*h, b.y0 + uint32(q[r].dy)*h, h,
					b.lo + uint64(r)*area, q[r].next,
				})
			}
		}
	}
	*sp = stack
	stackPool.Put(sp)
	return dst
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
// maximal contiguous HC ranges, sorted ascending. Bounds are clamped to
// the grid; an empty rectangle yields nil.
func (c Curve) Ranges(x0, y0, x1, y1 uint32) []Range {
	return c.AppendRanges(nil, x0, y0, x1, y1)
}

// AppendRanges is Ranges appending into dst (which may be nil or a
// recycled buffer).
func (c Curve) AppendRanges(dst []Range, x0, y0, x1, y1 uint32) []Range {
	rect, ok := c.ClampRect(x0, y0, x1, y1)
	if !ok {
		return dst
	}
	return c.AppendRangesFunc(dst, rect.Classify)
}

// RectRegion classifies cell blocks against the inclusive rectangle
// [X0,X1] x [Y0,Y1]. A caller can hold one long-lived RegionFunc over
// a RectRegion and re-parameterize the rectangle without allocating a
// new closure per query.
type RectRegion struct {
	X0, Y0, X1, Y1 uint32
}

// Classify implements RegionFunc semantics for the rectangle.
func (r *RectRegion) Classify(x0, y0, x1, y1 uint32) Region {
	if x1 < r.X0 || x0 > r.X1 || y1 < r.Y0 || y0 > r.Y1 {
		return Outside
	}
	if x0 >= r.X0 && x1 <= r.X1 && y0 >= r.Y0 && y1 <= r.Y1 {
		return Inside
	}
	return Partial
}

// ClampRect clamps the inclusive rectangle to the grid, exactly as
// Ranges does before decomposing. ok is false when the rectangle is
// empty after clamping.
func (c Curve) ClampRect(x0, y0, x1, y1 uint32) (RectRegion, bool) {
	side := c.Side()
	if x0 >= side {
		x0 = side - 1
	}
	if y0 >= side {
		y0 = side - 1
	}
	if x1 >= side {
		x1 = side - 1
	}
	if y1 >= side {
		y1 = side - 1
	}
	if x1 < x0 || y1 < y0 {
		return RectRegion{}, false
	}
	return RectRegion{X0: x0, Y0: y0, X1: x1, Y1: y1}, true
}
