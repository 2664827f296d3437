package dsi

import (
	"dsi/internal/broadcast"
	"dsi/internal/hilbert"
)

// EEF performs the paper's energy-efficient forwarding (section 3.2):
// starting from wherever the client tuned in, it follows index-table
// pointers until it reaches the frame that covers the given HC value —
// the frame that holds the object at that location, or would hold it if
// it existed. It returns the frame id and whether an object with
// exactly that HC value exists there (scanning the reached frame, which
// makes EEF a point query per the paper).
func (c *Client) EEF(hc uint64) (frame int, exists bool, stats broadcast.Stats) {
	if hc >= c.x.DS.Curve.Size() {
		panic("dsi: EEF target outside the curve")
	}
	c.constTargets(append(c.scr.targets[:0], hilbert.Range{Lo: hc, Hi: hc + 1}))
	p := c.probe()
	for {
		c.visit(p, nil)
		if f, certain := c.kb.coveringFrame(hc); certain && c.x.FrameToPos(f) == p {
			id := c.x.DS.FindHC(hc)
			exists = id < c.x.DS.N() && c.x.DS.Objects[id].HC == hc && c.kb.retrieved(id)
			return f, exists, c.Stats()
		}
		next, ok := c.nextVisit(p, false) // EEF forwards in cycle-position order on every layout
		if !ok {
			// The target is resolved: the object was retrieved or is
			// known not to exist. Forward to the covering frame if the
			// client is not already there, as EEF "reaches the frame
			// containing the data object".
			f, _ := c.kb.coveringFrame(hc)
			if pos := c.x.FrameToPos(f); pos != p {
				c.gotoFrameEntry(pos)
			}
			id := c.x.DS.FindHC(hc)
			exists = id < c.x.DS.N() && c.x.DS.Objects[id].HC == hc && c.kb.retrieved(id)
			return f, exists, c.Stats()
		}
		p = next
	}
}

// coveringFrame returns the frame with the largest known minimum HC
// value not exceeding hc (the frame that covers hc), and whether that
// identification is certain: the next same-span frame is known to
// start above hc, so no unknown frame can lie between.
func (kb *knowledge) coveringFrame(hc uint64) (frame int, certain bool) {
	j := kb.hcSpan(hc)
	base := kb.spanStart[j]
	it, ok := kb.known[j].FloorKey(kb.frameHC, base, hc)
	if !ok {
		// hc precedes every object: the covering frame is the first
		// frame of span 0, which the catalog makes always known.
		return kb.spanStart[0], true
	}
	i := it.Value()
	frame = base + i
	peek := it
	peek.Next()
	if peek.Valid() {
		certain = peek.Value() == i+1
	} else {
		certain = i == kb.spanLen(j)-1
	}
	return frame, certain
}
