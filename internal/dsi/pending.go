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
// if they were pending. (iii) A smaller search disk (kNN): nothing up
// front; a unit is re-evaluated when a chooser reads it and dropped if
// resolved — once per disk: every shrink bumps an 8-bit disk version
// (1 to 255, never 0), an evaluation under a disk stamps the version
// into the frame's epoch stamp, and a unit stamped with the installed
// disk's version is read as it stands. A target list is never stamped,
// so after a list shrinks every read re-evaluates. They suffice because
// resolved is absorbing: knowledge only grows, targets only shrink
// within a query (the disk's radius only shrinks), and frame minima
// ascend strictly along a span, so a resolved unit stays resolved and
// only pending units ever need another look. Rule (i) is applied as the
// fact is recorded, against the span's current known set, so one hop
// that teaches several frames into one gap patches correctly in any
// order; rule (ii) is queued, because one visit touches the same frame
// many times, and applied by sync before a chooser reads.
//
// Under a search disk, rules (i) and (ii) are deferred to the read too,
// because the disk usually shrinks in the same visit as the table read
// whose evaluations it would make stale. A learned frame enters the
// sets with every unit it may have and version bits 0, which mean "not
// evaluated under the installed disk"; a pending predecessor loses its
// stamp, and sync clears the stamps of the touched pending frames
// instead of evaluating them. current is then the one place a disk
// unit is evaluated: between reads the sets are a superset of the units
// a fresh walk visits, and a unit a chooser has read is exact. Under a
// target list both rules stay eager, and the sets are exact after sync.
//
// The targets are one of two things. A list of sorted target ranges
// (window, point, EEF, and a kNN search before its k-th candidate): a
// cursor remembers the range the last evaluation started from, the next
// one gallops from it to the first range ending above the frame's
// minimum — patches come in HC neighbourhoods, so this is a few probes,
// not a bisection of all targets — and one forward merge of the frame's
// located objects against the ranges finds the first range that reaches
// the frame unit and the first that reaches the gap unit; the order of
// the two is unitGapFirst. Or the kNN search disk, a hilbert.Disk that is
// never decomposed: an evaluation asks it whether a located object lies
// inside, where its next inside (or outside) cell is within the stretch
// of curve a run of unlocated objects can hold, and whether the gap's
// stretch meets it at all (the gap's cell is asked for only when the
// frame unit is pending above it and the two must be ordered); the
// maximal runs of the disk play the ranges' part. The range-by-range
// definition both equal is evalUnitsPerRange in walk_test.go.

package dsi

import (
	"math"
	"sort"

	"dsi/internal/hilbert"
	"dsi/internal/ordset"
)

// Unit state lives in the low bits of the frame's epoch stamp, and
// above them the version of the search disk the units were last
// evaluated under: no per-frame state beyond the stamp pages the
// knowledge base already has. A stamp reads epoch | version | unit bits.
const (
	unitFrame    = 1 << iota // the frame unit is pending
	unitGap                  // the gap unit after the frame is pending
	unitGapFirst             // a fresh walk meets the gap unit before the frame unit
	unitBits     = iota
	unitMask     = 1<<unitBits - 1

	verBits  = 8 // width of the search-disk version
	verShift = unitBits
	verMask  = (1<<verBits - 1) << verShift
	// verWrap is the first version that no longer fits its field.
	verWrap = 1 << verBits

	epochShift = unitBits + verBits
	// epochWrap is the first epoch that no longer fits beside the
	// version and the unit bits.
	epochWrap = 1 << (32 - epochShift)
)

// pending is the navigation state of the knowledge base (see the file
// comment).
type pending struct {
	// targets is the query's target set when it is a list (sorted,
	// disjoint); the slice aliases the client's target buffer.
	targets []hilbert.Range
	// disk is the target set instead when isDisk: the kNN search disk.
	disk   hilbert.Disk
	isDisk bool
	// end is one past the last target cell, whichever the kind.
	end uint64
	// version counts the shrinks of the query's targets: 0 until the
	// first, then 1 to 255 and round again. Once the targets have shrunk
	// a unit is re-evaluated when it is read, unless its stamp carries
	// the installed disk's version. A stamp of 0 is never current: a
	// disk is installed by a shrink.
	version uint32
	// cursor is the target range the last evaluation started from, where
	// the next one starts its search (seek).
	cursor int

	frames []ordset.Set // per span: indices with a pending frame unit
	gaps   []ordset.Set // per span: indices with a pending gap unit

	touched []int // frames with a new header or retrieval since the last sync (rule ii)
}

// units returns the unit bits of frame f: zero when it is unknown.
func (kb *knowledge) units(f int) uint32 {
	if e := kb.frameStamp(f); e>>epochShift == kb.epoch {
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

// retarget installs a new query's target list and rebuilds the pending
// sets from everything known (the catalog, plus whatever facts were
// seeded before the query): O(known frames).
func (kb *knowledge) retarget(targets []hilbert.Range) {
	p := &kb.pend
	p.targets, p.isDisk, p.version = targets, false, 0
	p.end = 0
	if n := len(targets); n > 0 {
		p.end = targets[n-1].Hi
	}
	kb.rebuildPending()
}

// shrinkDisk installs a search disk holding a subset of the installed
// targets. Nothing is re-evaluated here: most pending units of a kNN
// query are never read again, and the ones that are get re-evaluated
// then.
func (kb *knowledge) shrinkDisk(d hilbert.Disk) {
	p := &kb.pend
	p.disk, p.isDisk = d, true
	p.end = d.End()
	kb.shrunk()
}

// shrunk records that the installed targets just shrank: every target
// shrink comes through here. The version moves on, so no stamp written
// before reads as current. When it wraps, the stamps of the known
// frames are cleared first: a stamp 255 shrinks old would otherwise
// alias the new version.
func (kb *knowledge) shrunk() {
	p := &kb.pend
	if p.version++; p.version == verWrap {
		for j := 0; j < kb.nspan; j++ {
			base := kb.spanStart[j]
			for it := kb.known[j].Begin(); it.Valid(); it.Next() {
				*kb.knownStamp(base + it.Value()) &^= verMask
			}
		}
		p.version = 1
	}
}

// contains reports whether hc is a target.
func (p *pending) contains(hc uint64) bool {
	if p.isDisk {
		return hc < p.end && p.disk.Contains(hc)
	}
	t := p.targets
	i := sort.Search(len(t), func(i int) bool { return t[i].Hi > hc })
	return i < len(t) && t[i].Lo <= hc
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
			// The sets were just emptied: every unit is evaluated afresh.
			*kb.knownStamp(kb.spanStart[j] + i) &^= verMask | unitMask
			kb.evaluate(j, i, next)
		}
	}
}

// seek returns the index of the first target range ending above v (the
// length of the targets when none does), galloping from the range the
// previous evaluation started at — 1, 2, 4, … ranges away, towards the
// answer — and bisecting inside the bracket. The hint is only a place to
// start: it is clamped to the targets, which the next query replaces.
func (p *pending) seek(v uint64) int {
	t := p.targets
	n := len(t)
	h := min(p.cursor, n)
	lo, hi := 0, h // the answer lies in [lo, hi]
	if h < n && t[h].Hi <= v {
		lo, hi = h+1, n
		for step := 1; h+step < n; step <<= 1 {
			if t[h+step].Hi > v {
				hi = h + step
				break
			}
			lo = h + step + 1
		}
	} else {
		for step := 1; h-step >= 0; step <<= 1 {
			if t[h-step].Hi <= v {
				lo = h - step + 1
				break
			}
			hi = h - step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].Hi <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.cursor = lo
	return lo
}

// unitScan is one evaluation's view of the target ranges: clipped to
// the span [segLo, segHi), empty ones skipped, and ending at the first
// whose clipped start is at or above upper (no range from there on can
// reach the frame or its gap: ranges are sorted).
type unitScan struct {
	targets             []hilbert.Range
	segLo, segHi, upper uint64
}

// reach returns the first range of the scan at index r or beyond whose
// clipped end lies above v, with its clipped start; r < 0 when there is
// none.
func (s *unitScan) reach(r int, v uint64) (int, uint64) {
	for ; r < len(s.targets); r++ {
		lo, hi := max(s.targets[r].Lo, s.segLo), min(s.targets[r].Hi, s.segHi)
		if lo >= s.upper {
			break
		}
		if lo < hi && hi > v {
			return r, lo
		}
	}
	return -1, 0
}

// evalUnits evaluates the two units of known frame i of span j, whose
// next known frame is at index next (the span length when there is
// none), against the installed targets: the per-frame body of a fresh
// walk, which meets the frame's units at the first target range that
// reaches each. Only ranges ending above the frame's minimum HC and
// starting below the next known minimum can reach either, so the scan
// starts at the first range ending above the minimum (seek) and makes
// one forward pass from there:
//
//   - the gap unit (unknown frames between this one and the next known
//     one hold objects with HC in (hc, upper)) is reached by the first
//     range ending above hc+1;
//   - the frame unit by the first range for which the frame is not
//     resolved, found by one walk over the frame's objects with a range
//     pointer that only moves forward (frameReach).
//
// When one range reaches both, the walk meets the frame unit first.
func (kb *knowledge) evalUnits(j, i, next int) uint32 {
	if kb.pend.isDisk {
		return kb.evalUnitsDisk(j, i, next)
	}
	base := kb.spanStart[j]
	f := base + i
	hc := kb.frameHC(f)
	sc := unitScan{targets: kb.pend.targets}
	sc.segLo, sc.segHi = kb.spanHC(j)
	sc.upper = sc.segHi
	if next < kb.spanLen(j) {
		sc.upper = kb.frameHC(base + next)
	}
	r := kb.pend.seek(hc)
	var bits uint32
	rf := kb.frameReach(f, &sc, r)
	if rf >= 0 {
		bits |= unitFrame
	}
	if next > i+1 {
		if rg, _ := sc.reach(r, hc+1); rg >= 0 {
			bits |= unitGap
			if rf >= 0 && rg < rf {
				bits |= unitGapFirst
			}
		}
	}
	return bits
}

// frameReach returns the first range of the scan, at index r or beyond,
// for which frame f still requires attention (-1 when the frame is
// resolved for every range): an unretrieved located object inside the
// range, or a run of objects without a header that the range may reach.
// Unlocated objects are bounded by the located ones around them — the
// frame's minimum before, the next known frame's minimum (upper) after —
// so a run after a located object at prev reaches a range ending above
// prev+1 that starts below the next located value. Events come in
// ascending HC order, so the first hit is the first range; the shared
// pointer advances on located values only (prev), never on prev+1: two
// objects on one cell make prev+1 overtake the next point test.
func (kb *knowledge) frameReach(f int, sc *unitScan, r int) int {
	first, num := kb.x.FrameObjects(f)
	pages, loc := kb.objs.pages, kb.epoch<<1
	var prev uint64 // set by the first object, located whenever the frame is known
	gapOpen := false
	for id := first; id < first+num; id++ {
		pg := pages[id>>objPageBits]
		st, h := pg.ep[id&objPageMask], pg.hc[id&objPageMask]
		if st|1 != loc|1 {
			gapOpen = true
			continue
		}
		if gapOpen {
			// Unlocated objects between prev and h: HC in (prev, h).
			if q, lo := sc.reach(r, prev+1); q >= 0 && h > lo {
				return q
			}
			gapOpen = false
		}
		if st == loc {
			q, lo := sc.reach(r, h)
			if q < 0 {
				return -1 // nothing ends above h, nor above anything later
			}
			if lo <= h {
				return q
			}
			r = q
		}
		prev = h
	}
	if gapOpen {
		q, _ := sc.reach(r, prev+1)
		return q
	}
	return -1
}

// evalUnitsDisk is evalUnits against the search disk, whose maximal runs
// of cells are the target ranges. A run is named by any cell of it: the
// frame unit by the first run frameReachDisk finds, the gap unit by the
// first inside cell after the frame's minimum and below the next known
// one. The gap's run comes first exactly when its cell lies below the
// frame's with a cell outside the disk in between.
func (kb *knowledge) evalUnitsDisk(j, i, next int) uint32 {
	p := &kb.pend
	base := kb.spanStart[j]
	f := base + i
	hc := kb.frameHC(f)
	if hc >= p.end {
		return 0 // every run ends at or below the frame's minimum
	}
	sp := diskSpan{d: &p.disk, end: p.end}
	sp.segLo, sp.segHi = kb.spanHC(j)
	upper := sp.segHi
	if next < kb.spanLen(j) {
		upper = kb.frameHC(base + next)
	}
	var bits uint32
	fc, frame := kb.frameReachDisk(f, &sp, upper)
	if frame {
		bits |= unitFrame
	}
	if next > i+1 {
		// The gap's run can come first only when the frame's lies above
		// hc+1: only then is the gap's cell asked for, not just whether
		// there is one.
		if frame && fc > hc+1 {
			if gc, ok := sp.reach(hc+1, upper); ok {
				bits |= unitGap
				if gc < fc && p.disk.First(gc, fc, false) < fc {
					bits |= unitGapFirst
				}
			}
		} else if sp.meets(hc+1, upper) {
			bits |= unitGap
		}
	}
	return bits
}

// diskSpan is one disk evaluation's view of the search disk: its runs
// clipped to the span [segLo, segHi).
type diskSpan struct {
	d            *hilbert.Disk
	end          uint64 // d.End()
	segLo, segHi uint64
}

// reach returns a cell of the first run ending above u and starting
// below v, ok false when there is none — the test a target range passes
// when it reaches the unlocated objects, or unknown frames, whose HC
// values lie in (u-1, v). Below v the runs have cells in [u, v), which
// lies within the span for every caller. Objects on one cell make u
// pass v: then only a run holding all of [v-1, u] ends above u and
// starts below v.
func (s *diskSpan) reach(u, v uint64) (uint64, bool) {
	if u < v {
		c := s.d.First(u, min(v, s.end), true)
		return c, c < v && c < s.end
	}
	if v == 0 || v-1 < s.segLo || u >= s.segHi || u >= s.end {
		return 0, false
	}
	return v - 1, s.d.First(v-1, u+1, false) > u
}

// meets is reach without the cell: whether a run ends above u and
// starts below v.
func (s *diskSpan) meets(u, v uint64) bool {
	if u < v {
		return s.d.Meets(u, min(v, s.end))
	}
	_, ok := s.reach(u, v)
	return ok
}

// frameReachDisk is frameReach against the disk: a cell of the first run
// for which frame f still requires attention, ok false when the frame is
// resolved for every run. The events are frameReach's, in the same
// ascending order, so the first hit names the first run: an unretrieved
// located object inside the disk, or a run of unlocated objects that a
// run of the disk reaches (diskSpan.reach). Past the disk's end nothing
// is reached.
func (kb *knowledge) frameReachDisk(f int, s *diskSpan, upper uint64) (uint64, bool) {
	first, num := kb.x.FrameObjects(f)
	pages, loc := kb.objs.pages, kb.epoch<<1
	var prev uint64 // set by the first object, located whenever the frame is known
	gapOpen := false
	for id := first; id < first+num; id++ {
		pg := pages[id>>objPageBits]
		st, h := pg.ep[id&objPageMask], pg.hc[id&objPageMask]
		if st|1 != loc|1 {
			gapOpen = true
			continue
		}
		if gapOpen {
			// Unlocated objects between prev and h: HC in (prev, h).
			if c, ok := s.reach(prev+1, h); ok {
				return c, true
			}
			gapOpen = false
		}
		if h >= s.end {
			return 0, false // no run ends above h, nor above anything later
		}
		if st == loc && s.d.Contains(h) {
			return h, true
		}
		prev = h
	}
	if gapOpen {
		return s.reach(prev+1, upper)
	}
	return 0, false
}

// evaluate evaluates the units of known frame i of span j, whose next
// known frame is at index next, and records them. Under a search disk
// it also stamps the disk's version: the bits were evaluated against it
// (rule iii). A target list is never stamped.
func (kb *knowledge) evaluate(j, i, next int) uint32 {
	bits := kb.evalUnits(j, i, next)
	if kb.pend.isDisk {
		st := kb.knownStamp(kb.spanStart[j] + i)
		*st = *st&^verMask | kb.pend.version<<verShift
	}
	kb.setUnits(j, i, bits)
	return bits
}

// unstamp marks frame f's units as not evaluated under the installed
// disk: version bits 0, which no disk has (the version runs 1 to 255).
// Its unit bits stay as a superset of its pending units until a chooser
// reads them.
func (kb *knowledge) unstamp(f int) { *kb.knownStamp(f) &^= verMask }

// setUnits records the unit bits of known frame i of span j, moving it
// in or out of the pending sets where they changed.
func (kb *knowledge) setUnits(j, i int, bits uint32) {
	st := kb.knownStamp(kb.spanStart[j] + i)
	old := *st & unitMask
	if old == bits {
		return
	}
	*st = *st&^unitMask | bits
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
// one gap in one hop patch correctly in any order. Under a search disk
// it evaluates nothing: the frame goes into the pending sets with every
// unit it may have, unstamped, and the predecessor loses its stamp;
// current evaluates either if a chooser reads it (a resolved
// predecessor is in no set, and is never read).
func (kb *knowledge) learned(j, i int, at ordset.Iter) {
	succ := at
	succ.Next()
	next := kb.spanLen(j)
	if succ.Valid() {
		next = succ.Value()
	}
	base := kb.spanStart[j]
	if kb.pend.isDisk {
		bits := uint32(unitFrame)
		if next > i+1 {
			bits |= unitGap
		}
		kb.setUnits(j, i, bits)
		if at.Prev() {
			kb.unstamp(base + at.Value())
		}
		return
	}
	kb.evaluate(j, i, next)
	if at.Prev() {
		if pi := at.Value(); kb.units(base+pi) != 0 {
			kb.evaluate(j, pi, i)
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
// every unit a fresh walk over the installed targets would visit: under
// a target list exactly, under a search disk as a superset whose touched
// frames have lost their stamps, for current to evaluate on reading (a
// touched frame that is resolved is in no set, and is never read).
func (kb *knowledge) sync() {
	p := &kb.pend
	for _, f := range p.touched {
		switch {
		case p.isDisk:
			kb.unstamp(f)
		case kb.units(f) != 0:
			j := kb.frameSpan(f)
			i := f - kb.spanStart[j]
			kb.evaluate(j, i, kb.nextKnown(j, i))
		}
	}
	p.touched = p.touched[:0]
}

// current reports whether the unit `bit` of known frame i of span j is
// still pending, re-evaluating it first when the targets have shrunk
// since it may last have been evaluated (rule iii). A unit stamped with
// the installed disk's version was evaluated under that disk, and rules
// (i) and (ii) would have cleared the stamp had anything changed it
// since: it is trusted as it stands. Every other unit under a disk is
// evaluated here, the deferred rules (i) and (ii) included.
func (kb *knowledge) current(j, i int, bit uint32) bool {
	p := &kb.pend
	if p.version == 0 {
		return true // the targets have not shrunk
	}
	f := kb.spanStart[j] + i
	if p.isDisk && kb.frameStamp(f)&verMask == p.version<<verShift {
		return true
	}
	return kb.evaluate(j, i, kb.nextKnown(j, i))&bit != 0
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
func (s *Session) nextPendingTimed() (pos int, ok bool) {
	kb := s.kb
	kb.sync()
	lay := s.lay
	now := s.rx.Now()
	cur := s.rx.Channel()
	sw := int64(lay.Air.SwitchSlots)
	// First cycle position whose table starts at or after the index
	// channel's phase.
	tp := int64(s.x.TablePackets)
	tablePos := int((s.dataPhase(lay.StartCh, now, cur, sw) + tp - 1) / tp)
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
			at := kb.indexFrom(j, start+int((s.dataPhase(ch, now, cur, sw)+dp-1)/dp))
			if at > first && at < end {
				if i2, ok := kb.frameFrom(j, at); ok && i2 < end {
					i = i2
				}
			}
			p := kb.spanPos(j, i)
			offer(s.arrivalData(p, now, cur, sw), p, j, kb.unitRank(j, i, false))
			from = end
		}
		// Tables: the pending gap at or after the index channel's phase.
		if lo, hi, ok := kb.gapAround(j, kb.indexFrom(j, tablePos)); ok {
			t, p := s.arrivalTables(kb.spanPos(j, lo), kb.spanPos(j, hi), kb.stride, now, cur, sw)
			offer(t, p, j, kb.unitRank(j, lo-1, true))
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
