package hilbert

// The generic walk the package's descents are held to: a curve-ordered
// subdivision of the grid that asks a caller's block classifier about
// every block it meets. It knows nothing of the region's shape, so it
// is an oracle for the rectangle descent (AppendRanges) and the disk
// (Disk): the maximal runs of a cell set are unique, and every exact
// classifier yields them.

// region is the classification of a cell block against a query region.
type region int

const (
	// regionOutside means no cell of the block lies in the region.
	regionOutside region = iota
	// regionInside means every cell of the block lies in the region.
	regionInside
	// regionPartial means the block must be subdivided.
	regionPartial
)

// qblock is a pending block of the subdivision: its lower-left corner
// and side, plus the HC value of its first cell and the curve
// orientation inside it.
type qblock struct {
	x0, y0, s uint32
	lo        uint64
	state     uint8
}

// appendRangesFunc appends the maximal runs of the cells classify
// finds inside to dst, sorted ascending. classify gets a block's
// inclusive bounds [x0,x1] x [y0,y1] and must be consistent: a block
// classified inside (outside) has all (none) of its cells in the
// region. A cell classified partial counts as inside.
func (c Curve) appendRangesFunc(dst []Range, classify func(x0, y0, x1, y1 uint32) region) []Range {
	base := len(dst)
	stack := []qblock{{0, 0, c.Side(), 0, 0}}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch classify(b.x0, b.y0, b.x0+b.s-1, b.y0+b.s-1) {
		case regionOutside:
		case regionInside:
			dst = appendRun(dst, base, b.lo, b.lo+uint64(b.s)*uint64(b.s))
		default:
			if b.s == 1 {
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
	return dst
}

// rectOracle is the rectangle AppendRanges is held to, classified as
// given: no clamping, so corners past the grid and inverted rectangles
// reach the walk unchanged. Every block lies in the grid, so a block
// test against the raw rectangle is a test against its intersection
// with the grid.
type rectOracle struct{ x0, y0, x1, y1 uint32 }

func (r rectOracle) classify(x0, y0, x1, y1 uint32) region {
	if x1 < r.x0 || x0 > r.x1 || y1 < r.y0 || y0 > r.y1 {
		return regionOutside
	}
	if x0 >= r.x0 && x1 <= r.x1 && y0 >= r.y0 && y1 <= r.y1 {
		return regionInside
	}
	return regionPartial
}

// ranges is the reference decomposition of the rectangle.
func (r rectOracle) ranges(c Curve) []Range {
	return c.appendRangesFunc(nil, r.classify)
}
