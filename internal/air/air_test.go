package air

import (
	"math/rand"
	"sort"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// owner is what one slot of a tree layout carries: a copy of node id
// (obj false) or object id, and the packet within it.
type owner struct {
	obj      bool
	id, part int
}

// slotOwners reads a tree layout's placement back slot by slot from its
// occurrence maps. It fails unless the placements tile the cycle
// exactly: every slot carried once, node copies on index slots, objects
// on data slots.
func slotOwners(t *testing.T, l *Layout) []owner {
	t.Helper()
	out := make([]owner, l.Prog.Len())
	seen := make([]bool, len(out))
	claim := func(start, packets int, kind broadcast.Kind, o owner) {
		for p := 0; p < packets; p++ {
			s := start + p
			if s >= len(out) || seen[s] {
				t.Fatalf("%+v: slot %d outside the cycle or carried twice", o, s)
			}
			if k := l.Prog.At(s).Kind; k != kind {
				t.Fatalf("%+v: slot %d is %v, want %v", o, s, k, kind)
			}
			o.part = p
			out[s], seen[s] = o, true
		}
	}
	for id, occ := range l.nodeOcc {
		for _, s := range occ {
			claim(s, l.NodePackets, broadcast.KindIndex, owner{id: id})
		}
	}
	for id, s := range l.objSlot {
		claim(s, l.ObjPackets, broadcast.KindData, owner{obj: true, id: id})
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("slot %d carries nothing", s)
		}
	}
	return out
}

func TestLayoutStructure(t *testing.T) {
	ds := dataset.Uniform(300, 6, 1)
	for _, capacity := range []int{64, 128, 512} {
		hci, err := NewHCIBroadcast(ds, capacity, 1024)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		l := hci.Lay
		// Every object appears exactly once; every node at least once.
		objSeen := make(map[int]int)
		nodeStarts := make(map[int]int)
		for _, o := range slotOwners(t, l) {
			switch {
			case o.part != 0:
			case o.obj:
				objSeen[o.id]++
			default:
				nodeStarts[o.id]++
			}
		}
		if len(objSeen) != ds.N() {
			t.Fatalf("capacity %d: %d distinct objects, want %d", capacity, len(objSeen), ds.N())
		}
		for id, c := range objSeen {
			if c != 1 {
				t.Fatalf("object %d broadcast %d times", id, c)
			}
		}
		if len(nodeStarts) != hci.Tree.NodeCount() {
			t.Fatalf("capacity %d: %d nodes on air, want %d", capacity, len(nodeStarts), hci.Tree.NodeCount())
		}
		// Replicated levels (above the cut) appear NumSegments-proportional
		// times; the root appears once per segment.
		if got := nodeStarts[hci.Tree.Root().ID]; hci.Tree.Height() > 1 && got != l.NumSegments {
			if l.CutLevel == hci.Tree.Height()-1 {
				if got != 1 {
					t.Fatalf("root appears %d times with cut at root", got)
				}
			} else {
				t.Fatalf("root appears %d times, want %d segments", got, l.NumSegments)
			}
		}
		// Occurrence map must match the program.
		for id, want := range nodeStarts {
			if got := len(l.NodeOccurrences(id)); got != want {
				t.Fatalf("node %d: occurrence map has %d, program has %d", id, got, want)
			}
		}
	}
}

func TestNextNodeAndObject(t *testing.T) {
	ds := dataset.Uniform(100, 6, 3)
	hci, err := NewHCIBroadcast(ds, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	l := hci.Lay
	root := hci.Tree.Root().ID
	occ := l.NodeOccurrences(root)
	for _, now := range []int64{0, 5, int64(l.Prog.Len() - 1), int64(l.Prog.Len()) + 7} {
		next := l.NextNode(root, now)
		if next < now {
			t.Fatalf("NextNode went backwards: %d < %d", next, now)
		}
		pos := int(next % int64(l.Prog.Len()))
		found := false
		for _, o := range occ {
			if o == pos {
				found = true
			}
		}
		if !found {
			t.Fatalf("NextNode landed on %d, not an occurrence", pos)
		}
	}
	owners := slotOwners(t, l)
	for id := 0; id < 10; id++ {
		next := l.NextObject(id, 42)
		if next < 42 {
			t.Fatal("NextObject went backwards")
		}
		if o := owners[next%int64(len(owners))]; !o.obj || o.id != id || o.part != 0 {
			t.Fatalf("NextObject(%d) landed on %+v", id, o)
		}
	}
}

func TestBuildLayoutErrors(t *testing.T) {
	ds := dataset.Uniform(50, 6, 5)
	if _, err := NewRTreeBroadcast(ds, 32, 1024); err == nil {
		t.Error("R-tree at 32 bytes must fail")
	}
	hci, _ := NewHCIBroadcast(ds, 64, 1024)
	if _, err := BuildLayout(bpView{hci.Tree}, LayoutConfig{Capacity: 4}); err == nil {
		t.Error("tiny capacity accepted")
	}
	if _, err := BuildLayout(bpView{hci.Tree}, LayoutConfig{Capacity: 64, CutLevel: 99}); err == nil {
		t.Error("cut level out of range accepted")
	}
}

func TestRTreeWindowMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(400, 6, 7)
	for _, capacity := range []int{64, 128, 512} {
		b, err := NewRTreeBroadcast(ds, capacity, 1024)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		rng := rand.New(rand.NewSource(int64(capacity)))
		for i := 0; i < 10; i++ {
			w := spatial.ClampedWindow(uint32(rng.Intn(64)), uint32(rng.Intn(64)),
				uint32(rng.Intn(20)+1), 64)
			got, st := b.Window(w, rng.Int63n(int64(b.Lay.Prog.Len())), nil)
			want := ds.WindowBrute(w)
			if !equalInts(got, want) {
				t.Fatalf("capacity %d window %v: got %d objs, want %d", capacity, w, len(got), len(want))
			}
			if st.TuningPackets > st.LatencyPackets || st.LatencyPackets <= 0 {
				t.Fatalf("bad stats %+v", st)
			}
		}
	}
}

func TestHCIWindowMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(400, 6, 9)
	for _, capacity := range []int{64, 128, 512} {
		b, err := NewHCIBroadcast(ds, capacity, 1024)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		for i := 0; i < 10; i++ {
			w := spatial.ClampedWindow(uint32(rng.Intn(64)), uint32(rng.Intn(64)),
				uint32(rng.Intn(20)+1), 64)
			got, st := b.Window(w, rng.Int63n(int64(b.Lay.Prog.Len())), nil)
			want := ds.WindowBrute(w)
			if !equalInts(got, want) {
				t.Fatalf("capacity %d window %v: got %d objs, want %d", capacity, w, len(got), len(want))
			}
			if st.TuningPackets > st.LatencyPackets {
				t.Fatalf("bad stats %+v", st)
			}
		}
	}
}

func knnDists(ds *dataset.Dataset, q spatial.Point, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = ds.ByID(id).P.Dist(q)
	}
	sort.Float64s(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRTreeKNNMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(400, 6, 11)
	b, err := NewRTreeBroadcast(ds, 128, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 15; i++ {
		q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
		k := rng.Intn(15) + 1
		got, _ := b.KNN(q, k, rng.Int63n(int64(b.Lay.Prog.Len())), nil)
		if len(got) != k {
			t.Fatalf("got %d ids, want %d", len(got), k)
		}
		want, _ := ds.KNNBrute(q, k)
		if !equalFloats(knnDists(ds, q, got), knnDists(ds, q, want)) {
			t.Fatalf("kNN mismatch q=%v k=%d", q, k)
		}
	}
}

func TestHCIKNNMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(400, 6, 15)
	for _, capacity := range []int{64, 256} {
		b, err := NewHCIBroadcast(ds, capacity, 1024)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 15; i++ {
			q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
			k := rng.Intn(15) + 1
			got, _ := b.KNN(q, k, rng.Int63n(int64(b.Lay.Prog.Len())), nil)
			if len(got) != k {
				t.Fatalf("got %d ids, want %d", len(got), k)
			}
			want, _ := ds.KNNBrute(q, k)
			if !equalFloats(knnDists(ds, q, got), knnDists(ds, q, want)) {
				t.Fatalf("capacity %d: kNN mismatch q=%v k=%d", capacity, q, k)
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ds := dataset.Uniform(30, 5, 19)
	rt, _ := NewRTreeBroadcast(ds, 128, 1024)
	hc, _ := NewHCIBroadcast(ds, 64, 1024)
	if got, _ := rt.KNN(spatial.Point{X: 1, Y: 1}, 0, 0, nil); got != nil {
		t.Error("rtree k=0 must return nil")
	}
	if got, _ := hc.KNN(spatial.Point{X: 1, Y: 1}, 0, 0, nil); got != nil {
		t.Error("hci k=0 must return nil")
	}
	if got, _ := rt.KNN(spatial.Point{X: 1, Y: 1}, 100, 5, nil); len(got) != 30 {
		t.Errorf("rtree k>n returned %d", len(got))
	}
	if got, _ := hc.KNN(spatial.Point{X: 1, Y: 1}, 100, 5, nil); len(got) != 30 {
		t.Errorf("hci k>n returned %d", len(got))
	}
}

func TestCorrectUnderLoss(t *testing.T) {
	ds := dataset.Uniform(200, 6, 21)
	rt, _ := NewRTreeBroadcast(ds, 128, 1024)
	hc, _ := NewHCIBroadcast(ds, 64, 1024)
	rng := rand.New(rand.NewSource(23))
	for _, theta := range []float64{0.2, 0.5} {
		for i := 0; i < 5; i++ {
			w := spatial.ClampedWindow(uint32(rng.Intn(64)), uint32(rng.Intn(64)), 14, 64)
			want := ds.WindowBrute(w)
			loss := broadcast.NewLossModel(theta, rng.Int63())
			got, _ := rt.Window(w, rng.Int63n(int64(rt.Lay.Prog.Len())), loss)
			if !equalInts(got, want) {
				t.Fatalf("rtree window under loss mismatch")
			}
			loss = broadcast.NewLossModel(theta, rng.Int63())
			got, _ = hc.Window(w, rng.Int63n(int64(hc.Lay.Prog.Len())), loss)
			if !equalInts(got, want) {
				t.Fatalf("hci window under loss mismatch")
			}

			q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
			wantK, _ := ds.KNNBrute(q, 5)
			wd := knnDists(ds, q, wantK)
			loss = broadcast.NewLossModel(theta, rng.Int63())
			gotK, _ := rt.KNN(q, 5, rng.Int63n(int64(rt.Lay.Prog.Len())), loss)
			if !equalFloats(knnDists(ds, q, gotK), wd) {
				t.Fatalf("rtree kNN under loss mismatch")
			}
			loss = broadcast.NewLossModel(theta, rng.Int63())
			gotK, _ = hc.KNN(q, 5, rng.Int63n(int64(hc.Lay.Prog.Len())), loss)
			if !equalFloats(knnDists(ds, q, gotK), wd) {
				t.Fatalf("hci kNN under loss mismatch")
			}
		}
	}
}

func TestLossIncursLargerPenaltyThanErrorFree(t *testing.T) {
	// Tree indexes must pay when index packets are lost (they wait for
	// the next occurrence); average latency at theta=0.5 must exceed
	// the error-free average.
	ds := dataset.Uniform(300, 6, 25)
	hc, _ := NewHCIBroadcast(ds, 64, 1024)
	w := spatial.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	var base, lossy float64
	rng := rand.New(rand.NewSource(27))
	const trials = 30
	for i := 0; i < trials; i++ {
		probe := rng.Int63n(int64(hc.Lay.Prog.Len()))
		seed := rng.Int63()
		_, st := hc.Window(w, probe, nil)
		base += float64(st.LatencyPackets)
		_, st = hc.Window(w, probe, broadcast.NewLossModel(0.5, seed))
		lossy += float64(st.LatencyPackets)
	}
	if lossy <= base {
		t.Errorf("loss did not increase tree-index latency: %v <= %v", lossy/trials, base/trials)
	}
}

func TestAutoCutPicksInteriorLevel(t *testing.T) {
	// For a reasonably tall tree the best cut is neither pure (1,1)
	// (cut at root) in most cases; at minimum the layout must be valid
	// and have >= 1 segment.
	ds := dataset.Uniform(1000, 7, 29)
	hc, err := NewHCIBroadcast(ds, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Lay.NumSegments < 1 {
		t.Fatal("no segments")
	}
	if hc.Lay.CutLevel < 0 || hc.Lay.CutLevel >= hc.Tree.Height() {
		t.Fatalf("cut level %d out of range", hc.Lay.CutLevel)
	}
	if hc.Tree.Height() >= 4 && hc.Lay.NumSegments == 1 {
		t.Error("auto cut chose no replication for a tall tree")
	}
}
