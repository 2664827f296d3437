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
func (s *Session) EEF(hc uint64) (frame int, exists bool, stats broadcast.Stats) {
	if hc >= s.x.DS.Curve.Size() {
		panic("dsi: EEF target outside the curve")
	}
	s.prepare()
	s.constTargets(append(s.scr.targets[:0], hilbert.Range{Lo: hc, Hi: hc + 1}))
	p := s.probe()
	for {
		s.visit(p, nil)
		if f, certain := s.kb.coveringFrame(hc); certain && s.x.FrameToPos(f) == p {
			id := s.x.DS.FindHC(hc)
			exists = id < s.x.DS.N() && s.x.DS.Objects[id].HC == hc && s.kb.retrieved(id)
			return f, exists, s.Stats()
		}
		next, ok := s.nextVisit(p, false) // EEF forwards in cycle-position order on every layout
		if !ok {
			// The target is resolved: the object was retrieved or is
			// known not to exist. Forward to the covering frame if the
			// client is not already there, as EEF "reaches the frame
			// containing the data object".
			f, _ := s.kb.coveringFrame(hc)
			if pos := s.x.FrameToPos(f); pos != p {
				s.gotoFrameEntry(pos)
			}
			id := s.x.DS.FindHC(hc)
			exists = id < s.x.DS.N() && s.x.DS.Objects[id].HC == hc && s.kb.retrieved(id)
			return f, exists, s.Stats()
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
	it, ok := kb.known[j].FloorKey(func(i int) uint64 { return kb.frameHC(base + i) }, hc)
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
