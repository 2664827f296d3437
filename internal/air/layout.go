// Package air puts tree indexes (the STR R-tree and the B+-tree behind
// the Hilbert Curve Index) on the broadcast channel using the
// distributed indexing scheme of Imielinski, Viswanathan & Badrinath
// ("Data on air", TKDE 1997), which the paper uses for both baselines.
//
// The scheme replicates the top levels of the tree: the broadcast cycle
// consists of one segment per node at the cut level, each segment
// carrying the path from the root to that node (the replicated part),
// the node's entire subtree (the non-replicated part), and the data
// buckets the subtree covers. A client that tunes in anywhere reaches
// the next copy of the root after a fraction of a cycle instead of
// waiting for the single root of a (1,1) layout.
//
// On-air searches navigate in broadcast order (paper section 2.1): all
// pending node visits are served in the order their next broadcast
// occurrence arrives, and a visit whose occurrence has passed waits for
// the next replica or the next cycle — the structural disadvantage DSI
// is designed to remove.
package air

import (
	"fmt"
	"math"
	"sort"

	"dsi/internal/broadcast"
)

// TreeView is the structural view of a tree index that the layout
// needs: dense node IDs, levels (0 = leaf), children for internal nodes
// and object IDs for leaves.
type TreeView interface {
	RootID() int
	Height() int
	Level(id int) int
	Children(id int) []int
	LeafObjects(id int) []int
	NodeBytes() int
}

// Layout is a distributed-index broadcast program for a tree.
type Layout struct {
	Tree        TreeView
	Capacity    int
	ObjectBytes int
	NodePackets int
	ObjPackets  int
	// CutLevel is the tree level whose nodes head the broadcast
	// segments; levels above it are replicated once per segment.
	CutLevel    int
	NumSegments int

	Prog    *broadcast.Program
	air     *broadcast.Air // Prog as a one-channel air, what clients tune
	nodeOcc map[int][]int  // node id -> sorted cycle slots of its copies
	objSlot map[int]int    // object id -> cycle slot
}

// LayoutConfig configures BuildLayout. A zero CutLevel with AutoCut
// selects the cut minimizing estimated access latency.
type LayoutConfig struct {
	Capacity    int
	ObjectBytes int
	CutLevel    int
	AutoCut     bool
}

// BuildLayout constructs the broadcast program for the tree.
func BuildLayout(t TreeView, cfg LayoutConfig) (*Layout, error) {
	if cfg.Capacity < 8 {
		return nil, fmt.Errorf("air: capacity %d too small", cfg.Capacity)
	}
	if cfg.ObjectBytes <= 0 {
		cfg.ObjectBytes = broadcast.ObjectBytes
	}
	h := t.Height()
	cut := cfg.CutLevel
	if cfg.AutoCut {
		cut = bestCut(t, cfg)
	}
	if cut < 0 || cut >= h {
		return nil, fmt.Errorf("air: cut level %d outside [0,%d]", cut, h-1)
	}

	l := &Layout{
		Tree:        t,
		Capacity:    cfg.Capacity,
		ObjectBytes: cfg.ObjectBytes,
		NodePackets: broadcast.PacketsFor(t.NodeBytes(), cfg.Capacity),
		ObjPackets:  broadcast.PacketsFor(cfg.ObjectBytes, cfg.Capacity),
		CutLevel:    cut,
		nodeOcc:     make(map[int][]int),
		objSlot:     make(map[int]int),
	}

	var slots []broadcast.Slot
	emitNode := func(id int) {
		l.nodeOcc[id] = append(l.nodeOcc[id], len(slots))
		for p := 0; p < l.NodePackets; p++ {
			slots = append(slots, broadcast.Slot{Kind: broadcast.KindIndex})
		}
	}
	emitObj := func(id int) {
		l.objSlot[id] = len(slots)
		for p := 0; p < l.ObjPackets; p++ {
			slots = append(slots, broadcast.Slot{Kind: broadcast.KindData})
		}
	}

	// One segment per cut-level node, left to right.
	for _, u := range nodesAtLevel(t, cut) {
		for _, p := range pathTo(t, u) {
			emitNode(p)
		}
		subtree, objs := collectSubtree(t, u)
		for _, id := range subtree {
			emitNode(id)
		}
		for _, id := range objs {
			emitObj(id)
		}
		l.NumSegments++
	}
	l.Prog = &broadcast.Program{Capacity: cfg.Capacity, Slots: slots}
	l.air = broadcast.SingleAir(l.Prog)
	return l, nil
}

// nodesAtLevel returns the IDs of the nodes at the given level in
// left-to-right order.
func nodesAtLevel(t TreeView, level int) []int {
	var out []int
	var walk func(id int)
	walk = func(id int) {
		if t.Level(id) == level {
			out = append(out, id)
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(t.RootID())
	return out
}

// pathTo returns the nodes strictly above u on the root path, top-down
// (the replicated part of u's segment).
func pathTo(t TreeView, u int) []int {
	if u == t.RootID() {
		return nil
	}
	var path []int
	id := t.RootID()
	for id != u {
		path = append(path, id)
		next := -1
		for _, c := range t.Children(id) {
			if covers(t, c, u) {
				next = c
				break
			}
		}
		if next < 0 {
			panic("air: node unreachable from root")
		}
		id = next
	}
	return path
}

// covers reports whether node u lies in the subtree of node a.
func covers(t TreeView, a, u int) bool {
	if a == u {
		return true
	}
	if t.Level(a) <= t.Level(u) {
		return false
	}
	for _, c := range t.Children(a) {
		if covers(t, c, u) {
			return true
		}
	}
	return false
}

// collectSubtree returns the pre-order node IDs of u's subtree and the
// object IDs of its leaves in leaf order.
func collectSubtree(t TreeView, u int) (nodes, objs []int) {
	var walk func(id int)
	walk = func(id int) {
		nodes = append(nodes, id)
		if t.Level(id) == 0 {
			objs = append(objs, t.LeafObjects(id)...)
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(u)
	return nodes, objs
}

// bestCut selects the cut level minimizing an access-latency estimate:
// half the cycle (data wait) plus half the index-segment gap (probe
// wait). More replication shortens the probe wait but lengthens the
// cycle.
func bestCut(t TreeView, cfg LayoutConfig) int {
	h := t.Height()
	nodePackets := broadcast.PacketsFor(t.NodeBytes(), cfg.Capacity)
	objPackets := broadcast.PacketsFor(cfg.ObjectBytes, cfg.Capacity)

	// Count nodes and objects per level.
	levelCount := make([]int, h)
	objects := 0
	var walk func(id int)
	walk = func(id int) {
		levelCount[t.Level(id)]++
		if t.Level(id) == 0 {
			objects += len(t.LeafObjects(id))
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(t.RootID())

	best, bestCost := h-1, math.Inf(1)
	for cut := 0; cut < h; cut++ {
		nonRepl := 0
		for lv := 0; lv <= cut; lv++ {
			nonRepl += levelCount[lv]
		}
		segments := levelCount[cut]
		replicated := segments * (h - 1 - cut)
		cycle := float64(objects*objPackets + (nonRepl+replicated)*nodePackets)
		cost := cycle/2 + cycle/float64(2*segments)
		if cost < bestCost {
			best, bestCost = cut, cost
		}
	}
	return best
}

// NodeOccurrences returns the cycle slots at which node id is broadcast.
func (l *Layout) NodeOccurrences(id int) []int { return l.nodeOcc[id] }

// NextNode returns the earliest absolute slot >= now at which node id
// begins.
func (l *Layout) NextNode(id int, now int64) int64 {
	occ := l.nodeOcc[id]
	cl := int64(l.Prog.Len())
	cur := int(now % cl)
	i := sort.SearchInts(occ, cur)
	if i < len(occ) {
		return now + int64(occ[i]-cur)
	}
	return now + int64(occ[0]+l.Prog.Len()-cur)
}

// NextObject returns the earliest absolute slot >= now at which object
// id begins.
func (l *Layout) NextObject(id int, now int64) int64 {
	slot, ok := l.objSlot[id]
	if !ok {
		panic(fmt.Sprintf("air: object %d not in layout", id))
	}
	return broadcast.NextOccurrence(now, slot, l.Prog.Len())
}

// CycleBytes returns the broadcast cycle length in bytes.
func (l *Layout) CycleBytes() int64 { return l.Prog.CycleBytes() }

// IndexOverheadBytes returns the index bytes per cycle (node packets,
// including replicas).
func (l *Layout) IndexOverheadBytes() int64 {
	total := 0
	for _, occ := range l.nodeOcc {
		total += len(occ) * l.NodePackets
	}
	return int64(total) * int64(l.Capacity)
}
