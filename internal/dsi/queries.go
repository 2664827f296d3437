package dsi

import (
	"math"
	"slices"

	"dsi/internal/broadcast"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// Strategy selects the kNN search-space navigation strategy
// (paper section 3.4).
type Strategy int

const (
	// Conservative retrieves every object that may potentially be in
	// the answer set and follows the first index entry whose range
	// overlaps the current search space: small access latency, higher
	// tuning cost.
	Conservative Strategy = iota
	// Aggressive follows the index entry pointing at the frame closest
	// to the query point to shrink the search space fast: low tuning
	// cost, but skipped ranges may have to wait for the next cycle.
	Aggressive
)

func (s Strategy) String() string {
	switch s {
	case Conservative:
		return "conservative"
	case Aggressive:
		return "aggressive"
	default:
		return "strategy?"
	}
}

// scratch is the per-query working state a client reuses across
// queries. The closures are created once per client and read their
// inputs from the scratch fields, so a warm query installs new
// parameters without allocating.
type scratch struct {
	// targets is the current HC target decomposition (window rectangle,
	// point or EEF cell); a kNN search disk is never decomposed.
	targets []hilbert.Range

	knn knnScratch
}

// constTargets installs targets as the query's fixed target set.
func (s *Session) constTargets(targets []hilbert.Range) {
	s.scr.targets = targets
	s.kb.retarget(targets)
}

// windowTargets decomposes w (intersected with the grid) into HC ranges
// using the reusable target buffer.
func (s *Session) windowTargets(w spatial.Rect) []hilbert.Range {
	return s.x.DS.Curve.AppendRanges(s.scr.targets[:0], w.MinX, w.MinY, w.MaxX, w.MaxY)
}

// Window executes a window query: it returns the IDs of all objects
// inside w, in HC order, together with the query's cost metrics.
func (s *Session) Window(w spatial.Rect) ([]int, broadcast.Stats) {
	return s.WindowAppend(nil, w)
}

// WindowAppend is Window appending the result IDs into dst (which may
// be nil or a recycled buffer): zero allocations at steady state.
func (s *Session) WindowAppend(dst []int, w spatial.Rect) ([]int, broadcast.Stats) {
	s.prepare()
	s.constTargets(s.windowTargets(w))
	start := s.probe()
	s.retrieveAll(start, nil, nil)
	return s.collect(dst, s.scr.targets), s.Stats()
}

// Point executes a point query: it returns the ID of the object at
// point p and whether one exists. Either way the client has certainty
// when the query terminates. A point off the grid holds no object: like
// an empty window, it targets nothing, so the probe is paid and the
// answer is "not found".
func (s *Session) Point(p spatial.Point) (id int, found bool, stats broadcast.Stats) {
	s.prepare()
	curve := s.x.DS.Curve
	if p.X >= curve.Side() || p.Y >= curve.Side() {
		s.constTargets(s.scr.targets[:0])
		s.retrieveAll(s.probe(), nil, nil)
		return 0, false, s.Stats()
	}
	hc := curve.Encode(p.X, p.Y)
	s.constTargets(append(s.scr.targets[:0], hilbert.Range{Lo: hc, Hi: hc + 1}))
	start := s.probe()
	s.retrieveAll(start, nil, nil)
	for i := s.x.DS.FindHC(hc); i < s.x.DS.N() && s.x.DS.Objects[i].HC == hc; i++ {
		if s.kb.retrieved(i) {
			return i, true, s.Stats()
		}
	}
	return 0, false, s.Stats()
}

// collect appends the retrieved object IDs with HC values in the
// targets to dst, ascending.
func (s *Session) collect(dst []int, targets []hilbert.Range) []int {
	for _, r := range targets {
		for i := s.x.DS.FindHC(r.Lo); i < s.x.DS.N() && s.x.DS.Objects[i].HC < r.Hi; i++ {
			if s.kb.retrieved(i) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// knnCand is an object known to the client during kNN processing. The
// 1-1 correspondence between HC values and cells makes index knowledge
// exact: locating an object means knowing its distance.
type knnCand struct {
	id int
	d2 float64
	hc uint64
}

// candLess orders candidates by distance, ties broken by HC value so
// results are deterministic.
func candLess(a, b knnCand) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.hc < b.hc
}

// knnScratch is the kNN working state: the query parameters, the
// current squared search radius, and a bounded max-heap holding the k
// best candidates seen so far (the heap root is the current k-th
// nearest, whose distance bounds the search space). Keeping only k
// candidates replaces the full candidate list and its repeated
// O(n log n) sorts. The radius is kept squared end to end: cell
// distances squared are integers (exact in float64), and a
// sqrt-then-resquare round-trip could misclassify boundary cells.
type knnScratch struct {
	q     spatial.Point
	k     int
	curR2 float64
	heap  []knnCand
	full  [1]hilbert.Range

	fn func()
}

// push offers a candidate to the bounded heap.
func (ks *knnScratch) push(cand knnCand) {
	h := ks.heap
	if len(h) < ks.k {
		h = append(h, cand)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !candLess(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		ks.heap = h
		return
	}
	if !candLess(cand, h[0]) {
		return
	}
	h[0] = cand
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && candLess(h[big], h[l]) {
			big = l
		}
		if r < len(h) && candLess(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// knnTargets is the kNN target update: absorb freshly located objects
// into the candidate heap, and once k candidates are known, install the
// disk of the k-th candidate distance as the target set.
func (s *Session) knnTargets() {
	ks := &s.scr.knn
	curve := s.x.DS.Curve
	for _, id := range s.kb.drainNew() {
		hc := s.kb.objHC(id)
		x, y := curve.Decode(hc)
		ks.push(knnCand{id: id, d2: ks.q.Dist2(spatial.Point{X: x, Y: y}), hc: hc})
	}
	if len(ks.heap) < ks.k {
		return
	}
	if d2 := ks.heap[0].d2; d2 != ks.curR2 {
		ks.curR2 = d2
		s.kb.shrinkDisk(hilbert.Disk{Curve: curve, Qx: float64(ks.q.X), Qy: float64(ks.q.Y), R2: d2})
	}
}

// KNN executes a k-nearest-neighbor query at point q using the given
// strategy. It returns the IDs of the k nearest objects (all fully
// retrieved) and the query's cost metrics. On a reorganized broadcast
// (Segments > 1), Conservative is the strategy the paper evaluates.
func (s *Session) KNN(q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	return s.KNNAppend(nil, q, k, strat)
}

// KNNAppend is KNN appending the result IDs into dst (which may be nil
// or a recycled buffer): zero allocations at steady state.
func (s *Session) KNNAppend(dst []int, q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	s.prepare()
	if k <= 0 {
		return dst, s.Stats()
	}
	if k > s.x.DS.N() {
		k = s.x.DS.N()
	}
	curve := s.x.DS.Curve

	ks := &s.scr.knn
	ks.q = q
	ks.k = k
	ks.curR2 = math.Inf(1)
	ks.heap = ks.heap[:0]
	ks.full[0] = hilbert.Range{Lo: 0, Hi: curve.Size()}
	s.kb.retarget(ks.full[:])
	if ks.fn == nil {
		ks.fn = s.knnTargets
	}

	var hook func(p int) (int, bool)
	if strat == Aggressive {
		// Phase 1 of the aggressive approach: keep following the table
		// entry whose frame is closest to the query point, until the
		// current frame is locally closest. Bounded so a pathological
		// distribution cannot jump forever.
		maxJumps := 4 * bitsFor(s.x.NF)
		jumps := 0
		// On multi-data-channel layouts (split, sharded) a hop's real
		// cost depends on which channel the candidate frame airs on and
		// where that channel is in its cycle: a marginally closer frame
		// on a cold shard can cost most of a cycle in waiting. Price
		// strictly-closer candidates by arrival time instead of picking
		// the positionally closest one.
		timed := s.lay.splitData() && !s.posHopOnly
		hook = func(p int) (int, bool) {
			if jumps >= maxJumps || s.lastTable == nil || s.lastTable.Pos != p {
				return 0, false
			}
			bestD := s.frameDist2(q, s.x.PosToFrame(p))
			best := -1
			if timed {
				// Among the candidates strictly closer than the current
				// frame, hop to the soonest-arriving data slot; ties go
				// to the closer frame, then the smaller position.
				now := s.rx.Now()
				cur := s.rx.Channel()
				sw := int64(s.lay.Air.SwitchSlots)
				curD := bestD
				bestT := int64(math.MaxInt64)
				for _, e := range s.lastTable.Entries {
					d := s.frameDist2(q, s.x.PosToFrame(e.TargetPos))
					if d >= curD {
						continue
					}
					t := s.arrivalData(e.TargetPos, now, cur, sw)
					if t < bestT || (t == bestT && (d < bestD || (d == bestD && e.TargetPos < best))) {
						bestT, bestD, best = t, d, e.TargetPos
					}
				}
			} else {
				for _, e := range s.lastTable.Entries {
					if d := s.frameDist2(q, s.x.PosToFrame(e.TargetPos)); d < bestD {
						bestD = d
						best = e.TargetPos
					}
				}
			}
			if best < 0 {
				jumps = maxJumps // vicinity reached: stay conservative
				return 0, false
			}
			jumps++
			return best, true
		}
	}

	start := s.probe()
	s.retrieveAll(start, ks.fn, hook)
	s.knnTargets() // absorb anything located by the final visit

	// The search space is resolved: every object within the k-th
	// candidate distance has been retrieved, so the heap holds the
	// answer.
	slices.SortFunc(ks.heap, func(a, b knnCand) int {
		if candLess(a, b) {
			return -1
		}
		if candLess(b, a) {
			return 1
		}
		return 0
	})
	for i := 0; i < k; i++ {
		dst = append(dst, ks.heap[i].id)
	}
	return dst, s.Stats()
}

// frameDist2 returns the squared distance from q to the cell of frame
// f's minimum HC value, using the per-frame coordinates precomputed at
// Build: no Hilbert decode per table entry per hop.
func (s *Session) frameDist2(q spatial.Point, f int) float64 {
	return q.Dist2(spatial.Point{X: s.x.cellX[f], Y: s.x.cellY[f]})
}

// bitsFor returns ceil(log2(n)) for n >= 1.
func bitsFor(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}
