// The pending set: which frame does the client doze to next, answered
// from what the last hop taught instead of from everything the client
// knows.
//
// A unit is one thing the client may still have to visit for the
// current targets, keyed by a known frame of a span: the frame unit of
// known frame i (objects of the frame still to fetch), or the gap unit
// after it (the run of unknown frames between i and the next known
// frame, which a target range can still reach). The pending sets hold
// the within-span indices of the unresolved units, two ordered sets per
// span, both subsets of known[j]; the choosers read successors out of
// them.
//
// Three patch rules keep them exact. (i) A learned frame: its two units
// are evaluated, and its predecessor's units re-evaluated if they were
// pending — the predecessor's upper bound and gap just shrank. (ii) A
// header or a retrieval: the frame's own units are re-evaluated, only
// if they were pending. (iii) Shrunken targets (kNN): nothing up front;
// a unit is re-evaluated when a chooser reads it and dropped if
// resolved. They suffice because resolved is absorbing: knowledge only
// grows, targets only shrink within a query, and frame minima ascend
// strictly along a span, so a resolved unit stays resolved and only
// pending units ever need another look. Rule (i) is applied as the fact
// is recorded, against the span's current known set, so one hop that
// teaches several frames into one gap patches correctly in any order;
// rule (ii) is queued, because one visit touches the same frame many
// times, and applied by sync before a chooser reads.

package dsi

import (
	"math"

	"dsi/internal/hilbert"
	"dsi/internal/ordset"
)

// Unit state lives in the low bits of the frame's epoch stamp: no
// per-frame array beyond the ones the knowledge base already has.
const (
	unitFrame    = 1 << iota // the frame unit is pending
	unitGap                  // the gap unit after the frame is pending
	unitGapFirst             // a fresh walk meets the gap unit before the frame unit
	unitBits     = iota
	unitMask     = 1<<unitBits - 1
	// epochWrap is the first epoch that no longer fits beside the unit
	// bits.
	epochWrap = 1 << (32 - unitBits)
)

// pending is the navigation state of the knowledge base (see the file
// comment).
type pending struct {
	// targets is the query's current target set (sorted, disjoint). The
	// slice aliases the client's target buffer: retarget and shrink
	// re-install it whenever the buffer is rewritten.
	targets []hilbert.Range
	// stale records that the targets have shrunk since some unit was
	// evaluated, so a unit is re-evaluated when it is read.
	stale bool

	frames []ordset.Set // per span: indices with a pending frame unit
	gaps   []ordset.Set // per span: indices with a pending gap unit

	touched []int // frames with a new header or retrieval since the last sync (rule ii)
}

// units returns the unit bits of frame f: zero when it is unknown.
func (kb *knowledge) units(f int) uint32 {
	if e := kb.frameEp[f]; e>>unitBits == kb.epoch {
		return e & unitMask
	}
	return 0
}

// clearPending empties the pending sets and the patch queues, in time
// proportional to what they hold. The unit bits are left to the caller:
// an epoch bump forgets them, rebuildPending overwrites them.
func (kb *knowledge) clearPending() {
	p := &kb.pend
	for j := range p.frames {
		p.frames[j].Reset()
		p.gaps[j].Reset()
	}
	if len(p.frames) < kb.nspan {
		p.frames = append(p.frames, make([]ordset.Set, kb.nspan-len(p.frames))...)
		p.gaps = append(p.gaps, make([]ordset.Set, kb.nspan-len(p.gaps))...)
	}
	p.touched = p.touched[:0]
}

// retarget installs a new query's target set and rebuilds the pending
// sets from everything known (the catalog, plus whatever facts were
// seeded before the query): O(known frames).
func (kb *knowledge) retarget(targets []hilbert.Range) {
	kb.pend.targets = targets
	kb.pend.stale = false
	kb.rebuildPending()
}

// shrink installs targets that are a subset of the installed ones.
// Nothing is re-evaluated here: most pending units of a kNN query are
// never read again, and the ones that are get re-evaluated then.
func (kb *knowledge) shrink(targets []hilbert.Range) {
	kb.pend.targets = targets
	kb.pend.stale = true
}

// rebuildPending re-evaluates every known frame of every span.
func (kb *knowledge) rebuildPending() {
	kb.clearPending()
	for j := 0; j < kb.nspan; j++ {
		it := kb.known[j].Begin()
		for it.Valid() {
			i := it.Value()
			it.Next()
			next := kb.spanLen(j)
			if it.Valid() {
				next = it.Value()
			}
			kb.frameEp[kb.spanStart[j]+i] &^= unitMask // the sets were just emptied
			kb.setUnits(j, i, kb.evalUnits(j, i, next))
		}
	}
}

// evalUnits evaluates the two units of known frame i of span j, whose
// next known frame is at index next (the span length when there is
// none), against the installed targets: the per-frame body of a fresh
// walk. Only ranges whose clipped end lies above the frame's minimum HC
// and whose start lies below the next known minimum can reach the frame
// or its gap.
func (kb *knowledge) evalUnits(j, i, next int) uint32 {
	base := kb.spanStart[j]
	f := base + i
	hc := kb.frameHC[f]
	segLo, segHi := kb.spanHC(j)
	upper := segHi
	if next < kb.spanLen(j) {
		upper = kb.frameHC[base+next]
	}
	targets := kb.pend.targets
	// First range ending above hc (the span end always does).
	ri, n := 0, len(targets)
	for ri < n {
		mid := int(uint(ri+n) >> 1)
		if targets[mid].Hi <= hc {
			ri = mid + 1
		} else {
			n = mid
		}
	}
	var bits uint32
	for ; ri < len(targets); ri++ {
		lo, hi := targets[ri].Lo, targets[ri].Hi
		if lo < segLo {
			lo = segLo
		}
		if hi > segHi {
			hi = segHi
		}
		if lo >= upper {
			break
		}
		if lo >= hi {
			continue
		}
		if bits&unitFrame == 0 && hc < hi && !kb.frameResolved(f, lo, hi, upper) {
			if bits&unitGap != 0 {
				bits |= unitGapFirst // an earlier range already reached the gap
			}
			bits |= unitFrame
		}
		// Unknown frames between this one and the next known one hold
		// objects with HC in (hc, upper).
		if bits&unitGap == 0 && next > i+1 && upper > lo && hc+1 < hi {
			bits |= unitGap
		}
		if bits&unitFrame != 0 && (bits&unitGap != 0 || next == i+1) {
			break
		}
	}
	return bits
}

// setUnits records the evaluated unit bits of known frame i of span j,
// moving it in or out of the pending sets where they changed.
func (kb *knowledge) setUnits(j, i int, bits uint32) {
	f := kb.spanStart[j] + i
	old := kb.frameEp[f] & unitMask
	if old == bits {
		return
	}
	kb.frameEp[f] = kb.frameEp[f]&^unitMask | bits
	changed := old ^ bits
	if changed&unitFrame != 0 {
		if bits&unitFrame != 0 {
			kb.pend.frames[j].Insert(i)
		} else {
			kb.pend.frames[j].Delete(i)
		}
	}
	if changed&unitGap != 0 {
		if bits&unitGap != 0 {
			kb.pend.gaps[j].Insert(i)
		} else {
			kb.pend.gaps[j].Delete(i)
		}
	}
}

// nextKnown returns the index of the first known frame of span j after
// index i, the span length when there is none.
func (kb *knowledge) nextKnown(j, i int) int {
	if it := kb.known[j].Ceil(i + 1); it.Valid() {
		return it.Value()
	}
	return kb.spanLen(j)
}

// learned applies rule (i) to frame i of span j, just added to the
// span's known set at iterator at: the successor and the predecessor
// are whatever the known set holds now, so several frames learned into
// one gap in one hop patch correctly in any order.
func (kb *knowledge) learned(j, i int, at ordset.Iter) {
	succ := at
	succ.Next()
	next := kb.spanLen(j)
	if succ.Valid() {
		next = succ.Value()
	}
	kb.setUnits(j, i, kb.evalUnits(j, i, next))
	if at.Prev() {
		if pi := at.Value(); kb.units(kb.spanStart[j]+pi) != 0 {
			kb.setUnits(j, pi, kb.evalUnits(j, pi, i))
		}
	}
}

// touch queues rule (ii) for frame f: a visit receives several headers
// and objects of one frame, and one re-evaluation at the next sync
// covers them all.
func (kb *knowledge) touch(f int) {
	p := &kb.pend
	if n := len(p.touched); n > 0 && p.touched[n-1] == f {
		return
	}
	p.touched = append(p.touched, f)
}

// sync applies the queued rule (ii). After sync the pending sets hold
// every unit a fresh walk over the installed targets would visit.
func (kb *knowledge) sync() {
	p := &kb.pend
	for _, f := range p.touched {
		if kb.units(f) == 0 {
			continue
		}
		j := kb.frameSpan(f)
		i := f - kb.spanStart[j]
		kb.setUnits(j, i, kb.evalUnits(j, i, kb.nextKnown(j, i)))
	}
	p.touched = p.touched[:0]
}

// current reports whether the unit `bit` of known frame i of span j is
// still pending, re-evaluating it first when the targets have shrunk
// since it may last have been evaluated (rule iii).
func (kb *knowledge) current(j, i int, bit uint32) bool {
	if !kb.pend.stale {
		return true
	}
	bits := kb.evalUnits(j, i, kb.nextKnown(j, i))
	kb.setUnits(j, i, bits)
	return bits&bit != 0
}

// frameFrom returns the first pending frame unit of span j at index
// from or beyond.
func (kb *knowledge) frameFrom(j, from int) (i int, ok bool) {
	for {
		it := kb.pend.frames[j].Ceil(from)
		if !it.Valid() {
			return 0, false
		}
		if i = it.Value(); kb.current(j, i, unitFrame) {
			return i, true
		}
	}
}

// gapFrom returns the first pending gap unit of span j that reaches
// index from or beyond, as the inclusive index range of its unknown
// frames.
func (kb *knowledge) gapFrom(j, from int) (lo, hi int, ok bool) {
	for {
		it := kb.pend.gaps[j].Ceil(from)
		end := -1
		// The gap keyed by the pending predecessor still reaches from
		// when no known frame lies in between (from itself included).
		if !it.Valid() || it.Value() > from {
			if pr := it; pr.Prev() {
				if e := kb.nextKnown(j, pr.Value()); e > from {
					it, end = pr, e
				}
			}
		}
		if !it.Valid() {
			return 0, 0, false
		}
		g := it.Value()
		if !kb.current(j, g, unitGap) {
			continue
		}
		if end < 0 {
			end = kb.nextKnown(j, g)
		}
		return g + 1, end - 1, true
	}
}

// gapAround is gapFrom with the wrap: the first pending gap reaching
// index from or beyond, else the span's first.
func (kb *knowledge) gapAround(j, from int) (lo, hi int, ok bool) {
	if lo, hi, ok = kb.gapFrom(j, from); !ok && from > 0 {
		lo, hi, ok = kb.gapFrom(j, 0)
	}
	return lo, hi, ok
}

// unitRank orders the units of one span the way a fresh walk meets
// them: by index, and a frame's gap unit after its frame unit unless
// unitGapFirst says otherwise.
func (kb *knowledge) unitRank(j, i int, gap bool) int {
	if gapFirst := kb.units(kb.spanStart[j]+i)&unitGapFirst != 0; gap == gapFirst {
		return 2 * i
	}
	return 2*i + 1
}

// indexFrom returns the smallest within-span index of span j whose
// cycle position is pos or later (possibly past the span's end).
func (kb *knowledge) indexFrom(j, pos int) int {
	d := pos - kb.posOrigin[j]
	if d <= 0 {
		return 0
	}
	return (d + kb.stride - 1) / kb.stride
}

// nextPending returns the cycle position of the soonest-arriving frame
// (strictly after nowPos, wrapping) that is not resolved with respect
// to the installed targets, in cycle-position order: the chooser of
// layouts whose position order is time order. ok is false when
// everything is resolved — a query terminates exactly when no pending
// unit remains. Per span the candidates are the pending frame and the
// pending gap at or after nowPos, else the span's first of each (the
// wrap).
func (kb *knowledge) nextPending(nowPos int) (pos int, ok bool) {
	kb.sync()
	nf := kb.x.NF
	from := nowPos%nf + 1
	bestDelta := nf + 1
	for j := 0; j < kb.nspan; j++ {
		at := kb.indexFrom(j, from)
		i, ok := kb.frameFrom(j, at)
		if !ok && at > 0 {
			i, ok = kb.frameFrom(j, 0)
		}
		if ok {
			p := kb.spanPos(j, i)
			if d := arrivalDelta(nowPos, p, p, kb.stride, nf); d < bestDelta {
				bestDelta = d
			}
		}
		if lo, hi, ok := kb.gapAround(j, at); ok {
			if d := arrivalDelta(nowPos, kb.spanPos(j, lo), kb.spanPos(j, hi), kb.stride, nf); d < bestDelta {
				bestDelta = d
			}
		}
	}
	if bestDelta > nf {
		return 0, false
	}
	return (nowPos + bestDelta) % nf, true
}

// nextPendingTimed is the index-split counterpart of nextPending (split
// and sharded layouts): it returns the pending frame whose visit can
// begin soonest in actual broadcast time — switch costs, per-channel
// phases and cycle lengths included — rather than soonest in
// cycle-position order. Position order equals time order on one
// channel, but an index-split layout runs channels of very different
// periods in parallel: index tables recur much faster than data frames,
// so the timed chooser batches table reads on the index channel
// whenever data is not imminent (consecutive gap tables are consecutive
// slots there) and harvests data frames in the order their slots
// actually come by.
//
// Both layouts place a data channel's frames as one contiguous block of
// cycle positions in slot order, and every table at its position on the
// index channel. So per span and data channel the soonest pending frame
// is the first one at or after the channel's phase inside the block
// (else the block's first), and the soonest table lies in the pending
// gap containing or following the index channel's phase (else the first
// gap): at most one candidate per channel per span.
//
// Units on different channels can arrive in the same slot. The order a
// fresh walk meets them in decides, and it is observable in every cost
// metric downstream: lower span, then lower index, then whichever unit
// of the frame a target range reaches first (unitGapFirst).
func (c *Client) nextPendingTimed() (pos int, ok bool) {
	kb := c.kb
	kb.sync()
	lay := c.lay
	now := c.rx.Now()
	cur := c.rx.Channel()
	sw := int64(lay.Air.SwitchSlots)
	// First cycle position whose table starts at or after the index
	// channel's phase.
	tp := int64(c.x.TablePackets)
	tablePos := int((c.dataPhase(lay.StartCh, now, cur, sw) + tp - 1) / tp)
	bestT := int64(math.MaxInt64)
	best, bestSpan, bestRank := -1, -1, 0
	offer := func(t int64, p, j, rank int) {
		if t < bestT || (t == bestT && j == bestSpan && rank < bestRank) {
			bestT, best, bestSpan, bestRank = t, p, j, rank
		}
	}
	for j := 0; j < kb.nspan; j++ {
		// Data: one candidate per channel block holding a pending frame.
		for from := 0; ; {
			first, ok := kb.frameFrom(j, from)
			if !ok {
				break
			}
			ch := int(lay.dataCh[kb.spanPos(j, first)])
			start := int(lay.dataStart[ch])
			end := kb.indexFrom(j, start+lay.ChanLen(ch)/lay.DataPackets)
			i := first
			// The block's first frame whose data starts at or after the
			// channel's phase, when that lies past the first pending one.
			dp := int64(lay.DataPackets)
			at := kb.indexFrom(j, start+int((c.dataPhase(ch, now, cur, sw)+dp-1)/dp))
			if at > first && at < end {
				if i2, ok := kb.frameFrom(j, at); ok && i2 < end {
					i = i2
				}
			}
			p := kb.spanPos(j, i)
			offer(c.arrivalData(p, now, cur, sw), p, j, kb.unitRank(j, i, false))
			from = end
		}
		// Tables: the pending gap at or after the index channel's phase.
		if lo, hi, ok := kb.gapAround(j, kb.indexFrom(j, tablePos)); ok {
			t, p := c.arrivalTables(kb.spanPos(j, lo), kb.spanPos(j, hi), kb.stride, now, cur, sw)
			offer(t, p, j, kb.unitRank(j, lo-1, true))
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
