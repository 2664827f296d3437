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
	// EEF point, or kNN search disk).
	targets []hilbert.Range
	// constFn returns targets unchanged; the target function of window
	// and point queries.
	constFn func() []hilbert.Range

	// win is the clamped window rectangle winRegion classifies against.
	win       hilbert.RectRegion
	winRegion hilbert.RegionFunc

	knn knnScratch
}

// constTargets installs targets as the fixed target set and returns the
// constant target function.
func (c *Client) constTargets(targets []hilbert.Range) func() []hilbert.Range {
	c.scr.targets = targets
	c.kb.retarget(targets)
	if c.scr.constFn == nil {
		c.scr.constFn = func() []hilbert.Range { return c.scr.targets }
	}
	return c.scr.constFn
}

// windowTargets decomposes w (clamped to the grid) into HC ranges using
// the reusable target buffer.
func (c *Client) windowTargets(w spatial.Rect) []hilbert.Range {
	curve := c.x.DS.Curve
	s := &c.scr
	rect, ok := curve.ClampRect(w.MinX, w.MinY, w.MaxX, w.MaxY)
	if !ok {
		return s.targets[:0]
	}
	s.win = rect
	if s.winRegion == nil {
		s.winRegion = func(x0, y0, x1, y1 uint32) hilbert.Region {
			return c.scr.win.Classify(x0, y0, x1, y1)
		}
	}
	return curve.AppendRangesFunc(s.targets[:0], s.winRegion)
}

// Window executes a window query: it returns the IDs of all objects
// inside w, in HC order, together with the query's cost metrics.
func (c *Client) Window(w spatial.Rect) ([]int, broadcast.Stats) {
	return c.WindowAppend(nil, w)
}

// WindowAppend is Window appending the result IDs into dst (which may
// be nil or a recycled buffer), avoiding the per-query result
// allocation on reused clients.
func (c *Client) WindowAppend(dst []int, w spatial.Rect) ([]int, broadcast.Stats) {
	targetsFn := c.constTargets(c.windowTargets(w))
	start := c.probe()
	c.retrieveAll(start, targetsFn, nil)
	return c.collect(dst, c.scr.targets), c.Stats()
}

// Point executes a point query: it returns the ID of the object at
// point p and whether one exists. Either way the client has certainty
// when the query terminates.
func (c *Client) Point(p spatial.Point) (id int, found bool, stats broadcast.Stats) {
	hc := c.x.DS.Curve.Encode(p.X, p.Y)
	targetsFn := c.constTargets(append(c.scr.targets[:0], hilbert.Range{Lo: hc, Hi: hc + 1}))
	start := c.probe()
	c.retrieveAll(start, targetsFn, nil)
	for i := c.x.DS.FindHC(hc); i < c.x.DS.N() && c.x.DS.Objects[i].HC == hc; i++ {
		if c.kb.retrieved(i) {
			return i, true, c.Stats()
		}
	}
	return 0, false, c.Stats()
}

// collect appends the retrieved object IDs with HC values in the
// targets to dst, ascending.
func (c *Client) collect(dst []int, targets []hilbert.Range) []int {
	for _, r := range targets {
		for i := c.x.DS.FindHC(r.Lo); i < c.x.DS.N() && c.x.DS.Objects[i].HC < r.Hi; i++ {
			if c.kb.retrieved(i) {
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
	// cover is the search disk's decomposition, refined in place each
	// time the radius shrinks. It holds pooled buffers only while a
	// query runs.
	cover hilbert.DiskCover

	fn func() []hilbert.Range
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

// knnTargets is the kNN target function: absorb freshly located
// objects into the candidate heap, and once k candidates are known,
// shrink the target set to the disk of the k-th candidate distance.
func (c *Client) knnTargets() []hilbert.Range {
	ks := &c.scr.knn
	curve := c.x.DS.Curve
	for _, id := range c.kb.drainNew() {
		hc := c.kb.objHC[id]
		x, y := curve.Decode(hc)
		ks.push(knnCand{id: id, d2: ks.q.Dist2(spatial.Point{X: x, Y: y}), hc: hc})
	}
	if len(ks.heap) < ks.k {
		return ks.full[:]
	}
	if d2 := ks.heap[0].d2; d2 != ks.curR2 {
		ks.curR2 = d2
		c.scr.targets = ks.cover.Shrink(c.scr.targets[:0], d2)
		c.kb.shrink(c.scr.targets)
	}
	return c.scr.targets
}

// KNN executes a k-nearest-neighbor query at point q using the given
// strategy. It returns the IDs of the k nearest objects (all fully
// retrieved) and the query's cost metrics. On a reorganized broadcast
// (Segments > 1), Conservative is the strategy the paper evaluates.
func (c *Client) KNN(q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	return c.KNNAppend(nil, q, k, strat)
}

// KNNAppend is KNN appending the result IDs into dst (which may be nil
// or a recycled buffer).
func (c *Client) KNNAppend(dst []int, q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	if k <= 0 {
		return dst, c.Stats()
	}
	if k > c.x.DS.N() {
		k = c.x.DS.N()
	}
	curve := c.x.DS.Curve

	ks := &c.scr.knn
	ks.q = q
	ks.k = k
	ks.curR2 = math.Inf(1)
	ks.heap = ks.heap[:0]
	ks.full[0] = hilbert.Range{Lo: 0, Hi: curve.Size()}
	c.kb.retarget(ks.full[:])
	ks.cover.Reset(curve, float64(q.X), float64(q.Y))
	if ks.fn == nil {
		ks.fn = c.knnTargets
	}

	var hook func(p int) (int, bool)
	if strat == Aggressive {
		// Phase 1 of the aggressive approach: keep following the table
		// entry whose frame is closest to the query point, until the
		// current frame is locally closest. Bounded so a pathological
		// distribution cannot jump forever.
		maxJumps := 4 * bitsFor(c.x.NF)
		jumps := 0
		// On multi-data-channel layouts (split, sharded) a hop's real
		// cost depends on which channel the candidate frame airs on and
		// where that channel is in its cycle: a marginally closer frame
		// on a cold shard can cost most of a cycle in waiting. Price
		// strictly-closer candidates by arrival time instead of picking
		// the positionally closest one.
		timed := c.lay.splitData() && !c.posHopOnly
		hook = func(p int) (int, bool) {
			if jumps >= maxJumps || c.lastTable == nil || c.lastTable.Pos != p {
				return 0, false
			}
			bestD := c.frameDist2(q, c.x.PosToFrame(p))
			best := -1
			if timed {
				// Among the candidates strictly closer than the current
				// frame, hop to the soonest-arriving data slot; ties go
				// to the closer frame, then the smaller position.
				now := c.rx.Now()
				cur := c.rx.Channel()
				sw := int64(c.lay.Air.SwitchSlots)
				curD := bestD
				bestT := int64(math.MaxInt64)
				for _, e := range c.lastTable.Entries {
					d := c.frameDist2(q, c.x.PosToFrame(e.TargetPos))
					if d >= curD {
						continue
					}
					t := c.arrivalData(e.TargetPos, now, cur, sw)
					if t < bestT || (t == bestT && (d < bestD || (d == bestD && e.TargetPos < best))) {
						bestT, bestD, best = t, d, e.TargetPos
					}
				}
			} else {
				for _, e := range c.lastTable.Entries {
					if d := c.frameDist2(q, c.x.PosToFrame(e.TargetPos)); d < bestD {
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

	start := c.probe()
	c.retrieveAll(start, ks.fn, hook)
	c.knnTargets() // absorb anything located by the final visit
	ks.cover.Release()

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
	return dst, c.Stats()
}

// frameDist2 returns the squared distance from q to the cell of frame
// f's minimum HC value, using the per-frame coordinates precomputed at
// Build: no Hilbert decode per table entry per hop.
func (c *Client) frameDist2(q spatial.Point, f int) float64 {
	return q.Dist2(spatial.Point{X: c.x.cellX[f], Y: c.x.cellY[f]})
}

// bitsFor returns ceil(log2(n)) for n >= 1.
func bitsFor(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}
