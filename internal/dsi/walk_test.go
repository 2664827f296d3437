// The walk: the reference the pending set (pending.go) is held against.
// Until the pending set replaced it, this was how the client chose its
// next frame — a fresh pass over target ranges x known frames on every
// hop. It lives on in tests only: TestPendingSetMatchesWalk and
// FuzzPendingSet compare the pending sets and both choosers with it
// after every hop, and BenchmarkWalkOracle keeps its cost reproducible.
// frameResolved is the walk's per-(frame, range) test, and
// evalUnitsPerRange the per-frame body of the walk that evalUnits
// computes in one pass, against a target list or a search disk
// (TestEvalUnitsMatchesPerRange and TestEvalUnitsDiskMatchesRanges hold
// them equal).

package dsi

import (
	"math"

	"dsi/internal/hilbert"
)

// frameResolved reports whether, as far as [lo, hi) is concerned, frame
// f requires no further attention: every object of f that could have an
// HC value in [lo, hi) is either retrieved or certainly outside.
// The frame's minimum HC must be known (so its first object is
// located). upper is a known strict upper bound on the HC values in f
// (the next known same-span frame's minimum, or the span end). Objects
// whose headers have not been received are bounded by the nearest
// located objects around them.
func (kb *knowledge) frameResolved(f int, lo, hi, upper uint64) bool {
	first, num := kb.x.FrameObjects(f)
	prev := kb.frameHC(f) // first object is located whenever the frame is known
	gapOpen := false
	for t := 0; t < num; t++ {
		id := first + t
		if !kb.objLocated(id) {
			gapOpen = true
			continue
		}
		hc := kb.objHC(id)
		if gapOpen {
			// Unlocated objects between prev and hc: HC in (prev, hc).
			if prev+1 < hi && hc > lo {
				return false
			}
			gapOpen = false
		}
		if hc >= lo && hc < hi && !kb.retrieved(id) {
			return false
		}
		prev = hc
	}
	if gapOpen && prev+1 < hi && upper > lo {
		return false
	}
	return true
}

// evalUnitsPerRange is the definition evalUnits implements: the two
// units of known frame i of span j (next known frame at index next)
// evaluated range by range against the sorted targets, frameResolved
// once per range the frame's span [hc, upper) meets, from a bisection
// over all targets.
func (kb *knowledge) evalUnitsPerRange(j, i, next int, targets []hilbert.Range) uint32 {
	base := kb.spanStart[j]
	f := base + i
	hc := kb.frameHC(f)
	segLo, segHi := kb.spanHC(j)
	upper := segHi
	if next < kb.spanLen(j) {
		upper = kb.frameHC(base + next)
	}
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

// walkTargets walks the client's knowledge about span j once, in
// ascending HC order, over all sorted (disjoint) target ranges, and
// calls visit for every (range, frame-or-gap) pair that is not resolved
// with respect to that range: known frames with pending objects, and
// unknown frames that could hold objects in the range. It produces
// exactly the pairs the per-range walks used to produce, but with one
// monotone pass over the span's known frames instead of one pass per
// range: both the known-frame cursor and the range cursor only move
// forward, so a query with many target ranges (a kNN disk
// decomposition) pays for each known frame once per span.
//
// For unknown gap frames, visit receives the within-span index range
// [gapLo, gapHi] (inclusive) of the gap; for known frames
// gapLo == gapHi == the frame's index. marks, when non-nil, is the
// caller's per-(range, span) resolution cache, flattened as
// ri*nspan + span: marked ranges are skipped entirely. found, when
// non-nil, records found[ri] = true for every range that produced a
// visit. Returning false from visit aborts the walk; the return value
// reports whether the walk ran to completion (only then may a caller
// conclude that ranges without a found mark are resolved in this span).
func (kb *knowledge) walkTargets(j int, targets []hilbert.Range, marks, found []bool, visit func(ri, gapLo, gapHi int) bool) bool {
	segLo, segHi := kb.spanHC(j)
	ns := kb.nspan
	// Skip to the first range that could intersect the span.
	ri := 0
	for ri < len(targets) && (targets[ri].Hi <= segLo || (marks != nil && marks[ri*ns+j])) {
		ri++
	}
	if ri == len(targets) || targets[ri].Lo >= segHi {
		return true
	}
	lo0 := targets[ri].Lo
	if lo0 < segLo {
		lo0 = segLo
	}
	base := kb.spanStart[j]
	segN := kb.spanLen(j)
	// Start at the last known frame whose minimum HC is <= the first
	// active range's lo. Index 0 is always known (catalog).
	minHC := func(i int) uint64 { return kb.frameHC(base + i) }
	it, ok := kb.known[j].FloorKey(minHC, lo0)
	if !ok {
		return true // unreachable: the catalog seeds index 0
	}
	// Single forward pass with one-element lookahead: i is the current
	// known index, it has already advanced to its successor.
	i := it.Value()
	it.Next()
	for {
		f := base + i
		hc := kb.frameHC(f)
		// Upper bound on this frame's content and the following gap.
		nextI := segN
		upper := segHi
		hasNext := it.Valid()
		if hasNext {
			nextI = it.Value()
			upper = kb.frameHC(base + nextI)
		}
		// Drop ranges nothing from this frame on can matter to (their
		// end is at or below the frame's minimum; ranges are sorted).
		for ri < len(targets) {
			if marks != nil && marks[ri*ns+j] {
				ri++
				continue
			}
			hi := targets[ri].Hi
			if hi > segHi {
				hi = segHi
			}
			if hi > hc {
				break
			}
			ri++
		}
		if ri == len(targets) || targets[ri].Lo >= segHi {
			return true
		}
		// Evaluate this frame and its trailing gap against every range
		// that can reach them: a range with lo >= upper lies beyond the
		// next known frame (this frame is not its floor), and later
		// ranges lie further still.
		for rj := ri; rj < len(targets); rj++ {
			if marks != nil && marks[rj*ns+j] {
				continue
			}
			lo, hi := targets[rj].Lo, targets[rj].Hi
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
			if hc < hi && !kb.frameResolved(f, lo, hi, upper) {
				if found != nil {
					found[rj] = true
				}
				if !visit(rj, i, i) {
					return false
				}
			}
			// Unknown frames between this one and the next known one
			// hold objects with HC in (hc, upper).
			if nextI > i+1 && upper > lo && hc+1 < hi {
				if found != nil {
					found[rj] = true
				}
				if !visit(rj, i+1, nextI-1) {
					return false
				}
			}
		}
		if !hasNext {
			return true
		}
		// Jump over known frames wholly below the next active range:
		// re-seek the cursor to that range's floor instead of stepping
		// through frames that cannot pair with anything.
		loR := targets[ri].Lo
		if loR < segLo {
			loR = segLo
		}
		if upper <= loR {
			if it2, ok2 := kb.known[j].FloorKey(minHC, loR); ok2 && it2.Value() > nextI {
				i = it2.Value()
				it = it2
				it.Next()
				continue
			}
		}
		i = nextI
		it.Next()
	}
}

// foundScratch returns a cleared per-range found buffer for a walk.
func (kb *knowledge) foundScratch(n int) []bool { return make([]bool, n) }

// resolved reports whether every object with an HC value in any of the
// target ranges has been retrieved, with certainty (no unknown frame
// could still hold one).
func (kb *knowledge) resolved(targets []hilbert.Range) bool {
	for j := 0; j < kb.nspan; j++ {
		done := true
		kb.walkTargets(j, targets, nil, nil, func(_, _, _ int) bool {
			done = false
			return false
		})
		if !done {
			return false
		}
	}
	return true
}

// nextUseful returns the cycle position of the soonest-arriving frame
// (strictly after nowPos, wrapping) that is not resolved with respect to
// the targets. ok is false when everything is resolved (so !ok is
// equivalent to resolved(targets): a query terminates exactly when no
// useful frame remains).
func (kb *knowledge) nextUseful(nowPos int, targets []hilbert.Range) (pos int, ok bool) {
	return kb.nextUsefulMarked(nowPos, targets, nil)
}

// nextUsefulMarked is nextUseful with a resolution cache: marks, when
// non-nil, has one slot per (target range, span) pair, flattened as
// rangeIdx*nspan + span. Resolution is monotone — knowledge and
// retrievals only grow, so a pair that is once resolved with respect to
// a fixed range can never become unresolved — which makes a set mark
// permanently valid for unchanged targets. Marked pairs are skipped;
// pairs observed fully resolved are marked.
func (kb *knowledge) nextUsefulMarked(nowPos int, targets []hilbert.Range, marks []bool) (pos int, ok bool) {
	nf := kb.x.NF
	bestDelta := nf + 1
	for j := 0; j < kb.nspan; j++ {
		var found []bool
		if marks != nil {
			found = kb.foundScratch(len(targets))
		}
		completed := kb.walkTargets(j, targets, marks, found, func(ri, gapLo, gapHi int) bool {
			// Earliest arrival among the gap's positions, strictly
			// after nowPos.
			if d := arrivalDelta(nowPos, kb.spanPos(j, gapLo), kb.spanPos(j, gapHi), kb.stride, nf); d < bestDelta {
				bestDelta = d
			}
			return bestDelta > 1 // delta 1 cannot be beaten
		})
		if completed && marks != nil {
			for ri := range targets {
				if !found[ri] {
					marks[ri*kb.nspan+j] = true
				}
			}
		}
		if bestDelta == 1 {
			return (nowPos + 1) % nf, true
		}
	}
	if bestDelta > nf {
		return 0, false
	}
	return (nowPos + bestDelta) % nf, true
}

// nextVisitTimed is the index-split counterpart of nextUsefulMarked
// (split and sharded layouts): it returns the unresolved frame whose
// visit can begin soonest in actual broadcast time — switch costs,
// per-channel phases and cycle lengths included — rather than soonest
// in cycle-position order. Position order equals time order on one
// channel, but an index-split layout runs channels of very different
// periods in parallel: index tables recur much faster than data frames,
// so the timed chooser batches table reads on the index channel
// whenever data is not imminent (consecutive gap tables are consecutive
// slots there) and harvests data frames in the order their slots
// actually come by; on a sharded layout each knowledge span is one data
// channel, so the walk prices every channel's own phase and cycle
// length. Marks semantics are as in nextUsefulMarked.
func (c *Session) nextVisitTimed(targets []hilbert.Range, marks []bool) (pos int, ok bool) {
	kb := c.kb
	now := c.rx.Now()
	cur := c.rx.Channel()
	sw := int64(c.lay.Air.SwitchSlots)
	bestT := int64(math.MaxInt64)
	best := -1
	for j := 0; j < kb.nspan; j++ {
		var found []bool
		if marks != nil {
			found = kb.foundScratch(len(targets))
		}
		base := kb.spanStart[j]
		// A frame or gap repeated for another overlapping range has the
		// same arrival; the walk alternates frame and gap visits per
		// range, so the two kinds memoize separately.
		lastFrame, lastLo, lastHi := -1, -1, -1
		completed := kb.walkTargets(j, targets, marks, found, func(ri, gapLo, gapHi int) bool {
			var t int64
			var p int
			if gapLo == gapHi && kb.frameKnown(base+gapLo) {
				if gapLo == lastFrame {
					return true
				}
				lastFrame = gapLo
				p = kb.spanPos(j, gapLo)
				t = c.arrivalData(p, now, cur, sw)
			} else {
				if gapLo == lastLo && gapHi == lastHi {
					return true
				}
				lastLo, lastHi = gapLo, gapHi
				t, p = c.arrivalTables(kb.spanPos(j, gapLo), kb.spanPos(j, gapHi), kb.stride, now, cur, sw)
			}
			if t < bestT {
				bestT, best = t, p
			}
			return true
		})
		if completed && marks != nil {
			for ri := range targets {
				if !found[ri] {
					marks[ri*kb.nspan+j] = true
				}
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
