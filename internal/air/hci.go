package air

import (
	"math"
	"sort"

	"dsi/internal/bptree"
	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// HCIBroadcast is the Hilbert Curve Index baseline (Zheng, Lee & Lee,
// PerCom 2003): data objects broadcast in ascending HC order, indexed by
// a B+-tree over HC values, laid out with the distributed indexing
// scheme. Window queries decompose the window into HC ranges and probe
// the tree for each; kNN queries first descend toward the query point's
// HC value to bound the search space, then range-probe the bound.
type HCIBroadcast struct {
	DS   *dataset.Dataset
	Tree *bptree.Tree
	Lay  *Layout
}

// bpView adapts *bptree.Tree to the layout's TreeView.
type bpView struct{ t *bptree.Tree }

func (v bpView) RootID() int              { return v.t.Root().ID }
func (v bpView) Height() int              { return v.t.Height() }
func (v bpView) Level(id int) int         { return v.t.Node(id).Level }
func (v bpView) Children(id int) []int    { return v.t.Node(id).Children }
func (v bpView) LeafObjects(id int) []int { return v.t.Node(id).Vals }
func (v bpView) NodeBytes() int           { return v.t.NodeBytes() }

// NewHCIBroadcast builds the B+-tree over the dataset's HC values and
// its broadcast layout.
func NewHCIBroadcast(ds *dataset.Dataset, capacity, objectBytes int) (*HCIBroadcast, error) {
	// The key extraction is capacity-independent; the dataset caches it
	// across the capacities a figure sweeps.
	keys, vals := ds.HCKeys()
	t, err := bptree.BuildForCapacity(keys, vals, capacity)
	if err != nil {
		return nil, err
	}
	lay, err := BuildLayout(bpView{t}, LayoutConfig{
		Capacity:    capacity,
		ObjectBytes: objectBytes,
		AutoCut:     true,
	})
	if err != nil {
		return nil, err
	}
	return &HCIBroadcast{DS: ds, Tree: t, Lay: lay}, nil
}

// overlapsTargets reports whether the key span [lo, hi) intersects any
// of the sorted target ranges.
func overlapsTargets(targets []hilbert.Range, lo, hi uint64) bool {
	i := sort.Search(len(targets), func(i int) bool { return targets[i].Hi > lo })
	return i < len(targets) && targets[i].Lo < hi
}

// inTargets reports whether key lies in any of the sorted target ranges.
func inTargets(targets []hilbert.Range, key uint64) bool {
	i := sort.Search(len(targets), func(i int) bool { return targets[i].Hi > key })
	return i < len(targets) && targets[i].Contains(key)
}

// Window executes an on-air window query and returns the matching
// object IDs in HC (ID) order.
func (b *HCIBroadcast) Window(w spatial.Rect, probeSlot int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	targets := b.DS.Curve.Ranges(w.MinX, w.MinY, w.MaxX, w.MaxY)
	nav := newNavigator(b.Lay, probeSlot, loss)
	nav.expand = func(id int, hi uint64) {
		n := b.Tree.Node(id)
		if n.Level == 0 {
			for i, key := range n.Keys {
				if inTargets(targets, key) {
					nav.scheduleObj(n.Vals[i])
				}
			}
			return
		}
		for i, childID := range n.Children {
			childHi := hi
			if i+1 < len(n.Keys) {
				childHi = n.Keys[i+1]
			}
			if overlapsTargets(targets, n.Keys[i], childHi) {
				nav.scheduleNode(childID, childHi)
			}
		}
	}
	nav.probe()
	nav.scheduleNode(b.Tree.Root().ID, math.MaxUint64)
	nav.run()
	out := nav.retrievedIDs()
	sort.Ints(out)
	return out, nav.tu.Stats()
}

// KNN executes an on-air k-nearest-neighbor query following the HCI
// algorithm as published (Zheng, Lee & Lee, PerCom 2003): phase 1
// descends to the leaves around the query point's HC value and takes
// the k objects nearest in HC-value order as the initial candidates;
// their maximum spatial distance fixes the search bound. Phase 2 is a
// window-style retrieval of every object inside that bound. Because HC
// proximity does not imply spatial proximity, the fixed bound is often
// loose, which is exactly the weakness the DSI paper reports: HCI
// retrieves many unqualified objects (tuning) and spans extra cycles
// (latency) on kNN queries.
func (b *HCIBroadcast) KNN(q spatial.Point, k int, probeSlot int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	nav := newNavigator(b.Lay, probeSlot, loss)
	if k <= 0 {
		nav.probe()
		return nil, nav.tu.Stats()
	}
	if k > b.DS.N() {
		k = b.DS.N()
	}
	curve := b.DS.Curve
	hcq := curve.Encode(q.X, q.Y)

	// hcNeighborhood is the HC range holding the k objects on either
	// side of hcq: the keys phase 1 must discover. The client derives
	// it incrementally from leaf contents; using the dataset's sorted
	// key list here only short-circuits that bookkeeping.
	loIdx := b.DS.FindHC(hcq) - k
	if loIdx < 0 {
		loIdx = 0
	}
	hiIdx := b.DS.FindHC(hcq) + k
	if hiIdx > b.DS.N() {
		hiIdx = b.DS.N()
	}
	phase1Lo := b.DS.Objects[loIdx].HC
	phase1Hi := b.DS.Objects[hiIdx-1].HC + 1

	var keys []uint64
	descend := true
	var targets []hilbert.Range
	nav.expand = func(id int, hi uint64) {
		n := b.Tree.Node(id)
		if n.Level == 0 {
			if descend {
				keys = append(keys, n.Keys...)
				return
			}
			for i, key := range n.Keys {
				if inTargets(targets, key) {
					nav.scheduleObj(n.Vals[i])
				}
			}
			return
		}
		for i, childID := range n.Children {
			childHi := hi
			if i+1 < len(n.Keys) {
				childHi = n.Keys[i+1]
			}
			if descend {
				if n.Keys[i] < phase1Hi && phase1Lo < childHi {
					nav.scheduleNode(childID, childHi)
				}
				continue
			}
			if overlapsTargets(targets, n.Keys[i], childHi) {
				nav.scheduleNode(childID, childHi)
			}
		}
	}
	nav.keepObj = func(id int) bool {
		return inTargets(targets, b.DS.ByID(id).HC)
	}

	// Phase 1: find the k nearest keys in HC-value order and fix the
	// spatial bound from them.
	nav.probe()
	nav.scheduleNode(b.Tree.Root().ID, math.MaxUint64)
	nav.run()

	type hcCand struct {
		key  uint64
		dist uint64 // |key - hcq| in HC-value order
	}
	hcs := make([]hcCand, 0, len(keys))
	for _, key := range keys {
		d := key - hcq
		if key < hcq {
			d = hcq - key
		}
		hcs = append(hcs, hcCand{key: key, dist: d})
	}
	sort.Slice(hcs, func(i, j int) bool {
		if hcs[i].dist != hcs[j].dist {
			return hcs[i].dist < hcs[j].dist
		}
		return hcs[i].key < hcs[j].key
	})
	if len(hcs) > k {
		hcs = hcs[:k]
	}
	r2 := 0.0
	for _, c := range hcs {
		x, y := curve.Decode(c.key)
		if d2 := q.Dist2(spatial.Point{X: x, Y: y}); d2 > r2 {
			r2 = d2
		}
	}
	// Classify against the exact squared bound: squared distances
	// between grid cells are integers (exact in float64), while
	// sqrt-then-resquare can round below r2 and exclude the k-th
	// phase-1 object sitting exactly on the boundary.
	targets = hilbert.Disk{Curve: curve, Qx: float64(q.X), Qy: float64(q.Y), R2: r2}.AppendRanges(nil)

	// Phase 2: retrieve everything inside the fixed bound (re-expanding
	// cached path nodes is free).
	descend = false
	nav.scheduleNode(b.Tree.Root().ID, math.MaxUint64)
	nav.run()

	// Answer: the k nearest among the retrieved objects. The bound was
	// derived from k real objects, so at least k objects lie inside it.
	type cand struct {
		id int
		d2 float64
	}
	var cands []cand
	for _, id := range nav.retrievedIDs() {
		cands = append(cands, cand{id: id, d2: b.DS.ByID(id).P.Dist2(q)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d2 != cands[j].d2 {
			return cands[i].d2 < cands[j].d2
		}
		return cands[i].id < cands[j].id
	})
	out := make([]int, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.id)
	}
	return out, nav.tu.Stats()
}
