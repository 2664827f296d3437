package air

import (
	"container/heap"

	"dsi/internal/broadcast"
)

// task is one pending on-air visit: a node to read or an object to
// retrieve at an absolute slot. hi carries the B+-tree key upper bound
// of a node's span (unused by the R-tree).
type task struct {
	slot  int64
	isObj bool
	id    int
	hi    uint64
}

type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].slot != h[j].slot {
		return h[i].slot < h[j].slot
	}
	if h[i].isObj != h[j].isObj {
		return !h[i].isObj // index packets precede data at the same slot group
	}
	return h[i].id < h[j].id
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// navigator serves pending node and object visits in broadcast order:
// always the earliest next occurrence first. Visits whose slot has
// passed are rescheduled to the next occurrence (next replica or next
// cycle) — the tree-index behaviour the paper contrasts DSI with.
type navigator struct {
	lay  *Layout
	tu   *broadcast.Tuner
	pq   taskHeap
	read map[int]bool // nodes received intact (client cache)
	got  map[int]bool // objects retrieved

	// expand is invoked exactly once per node after it is received (or
	// immediately for cached nodes); it schedules further visits.
	expand func(id int, hi uint64)
	// keepNode and keepObj prune scheduled visits at service time; a
	// pruned visit costs nothing. Nil means keep everything.
	keepNode func(id int, hi uint64) bool
	keepObj  func(id int) bool
}

func newNavigator(l *Layout, probeSlot int64, loss *broadcast.LossModel) *navigator {
	return &navigator{
		lay:  l,
		tu:   broadcast.NewTuner(l.air, 0, probeSlot, loss),
		read: make(map[int]bool),
		got:  make(map[int]bool),
	}
}

// probe reads packets until one arrives intact, synchronizing the
// client with the broadcast (each packet carries the offset of the next
// index segment).
func (n *navigator) probe() {
	for {
		if _, ok := n.tu.Read(); ok {
			return
		}
	}
}

// scheduleNode queues a visit to node id. Nodes already received are
// expanded immediately at no cost (client cache).
func (n *navigator) scheduleNode(id int, hi uint64) {
	if n.read[id] {
		n.expand(id, hi)
		return
	}
	heap.Push(&n.pq, task{slot: n.lay.NextNode(id, n.tu.Now()), id: id, hi: hi})
}

// scheduleObj queues retrieval of object id.
func (n *navigator) scheduleObj(id int) {
	if n.got[id] {
		return
	}
	heap.Push(&n.pq, task{slot: n.lay.NextObject(id, n.tu.Now()), id: id, isObj: true})
}

// run serves the queue until it drains.
func (n *navigator) run() {
	for n.pq.Len() > 0 {
		t := heap.Pop(&n.pq).(task)
		if t.isObj {
			n.serveObj(t)
		} else {
			n.serveNode(t)
		}
	}
}

func (n *navigator) serveNode(t task) {
	if n.read[t.id] {
		return
	}
	if n.keepNode != nil && !n.keepNode(t.id, t.hi) {
		return
	}
	if t.slot < n.tu.Now() {
		// Missed while serving something else: wait for the next copy.
		heap.Push(&n.pq, task{slot: n.lay.NextNode(t.id, n.tu.Now()), id: t.id, hi: t.hi})
		return
	}
	n.tu.DozeUntil(t.slot)
	if !n.tu.ReadN(n.lay.NodePackets) {
		// Lost: the only copy of this node is its next occurrence.
		heap.Push(&n.pq, task{slot: n.lay.NextNode(t.id, n.tu.Now()), id: t.id, hi: t.hi})
		return
	}
	n.read[t.id] = true
	n.expand(t.id, t.hi)
}

func (n *navigator) serveObj(t task) {
	if n.got[t.id] {
		return
	}
	if n.keepObj != nil && !n.keepObj(t.id) {
		return
	}
	if t.slot < n.tu.Now() {
		heap.Push(&n.pq, task{slot: n.lay.NextObject(t.id, n.tu.Now()), id: t.id, isObj: true})
		return
	}
	n.tu.DozeUntil(t.slot)
	if !n.tu.ReadN(n.lay.ObjPackets) {
		heap.Push(&n.pq, task{slot: n.lay.NextObject(t.id, n.tu.Now()), id: t.id, isObj: true})
		return
	}
	n.got[t.id] = true
}

// retrievedIDs returns the retrieved object IDs, unsorted.
func (n *navigator) retrievedIDs() []int {
	out := make([]int, 0, len(n.got))
	for id := range n.got {
		out = append(out, id)
	}
	return out
}
