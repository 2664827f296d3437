package dsi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsi/internal/dataset"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

func TestArrivalDelta(t *testing.T) {
	// Positions of the form j + m*i, i in [iLo, iHi]; delta must be the
	// smallest in [1, nf] with nowPos+delta such a position.
	cases := []struct {
		nowPos, j, m, iLo, iHi, nf, want int
	}{
		{0, 0, 1, 1, 5, 10, 1},  // next position is 1
		{3, 0, 1, 1, 2, 10, 8},  // gap passed: wrap to position 1
		{2, 0, 1, 2, 5, 10, 1},  // currently at gap edge: next is 3
		{5, 0, 2, 0, 4, 10, 1},  // even positions: 6 is next
		{6, 0, 2, 0, 4, 10, 2},  // at 6: next even position is 8
		{8, 0, 2, 0, 2, 10, 2},  // positions 0,2,4: from 8 wrap to 0
		{9, 1, 2, 0, 4, 10, 2},  // odd positions 1..9: from 9 wrap to 1... delta 2
		{0, 1, 2, 0, 0, 10, 1},  // single position 1
		{1, 1, 2, 0, 0, 10, 10}, // at it already: full wrap
	}
	for _, tc := range cases {
		got := arrivalDelta(tc.nowPos, tc.j+tc.m*tc.iLo, tc.j+tc.m*tc.iHi, tc.m, tc.nf)
		if got != tc.want {
			t.Errorf("arrivalDelta(now=%d,j=%d,m=%d,i=[%d,%d],nf=%d) = %d, want %d",
				tc.nowPos, tc.j, tc.m, tc.iLo, tc.iHi, tc.nf, got, tc.want)
		}
	}
}

func TestArrivalDeltaQuick(t *testing.T) {
	f := func(now uint8, j, m uint8, iLo, span uint8, nfRaw uint8) bool {
		mm := int(m)%4 + 1
		nf := int(nfRaw)%50 + mm*10
		jj := int(j) % mm
		maxI := (nf - jj - 1) / mm
		lo := int(iLo) % (maxI + 1)
		hi := lo + int(span)%(maxI-lo+1)
		nowPos := int(now) % nf
		d := arrivalDelta(nowPos, jj+mm*lo, jj+mm*hi, mm, nf)
		if d < 1 || d > nf {
			return false
		}
		pos := (nowPos + d) % nf
		if pos%mm != jj {
			return false
		}
		i := (pos - jj) / mm
		if i < lo || i > hi {
			return false
		}
		// Minimality: no smaller delta lands in the gap.
		for dd := 1; dd < d; dd++ {
			p := (nowPos + dd) % nf
			if p%mm == jj {
				if ii := (p - jj) / mm; ii >= lo && ii <= hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// teachAll feeds every frame fact into the knowledge base.
func teachAll(kb *knowledge, x *Index) {
	for f := 0; f < x.NF; f++ {
		kb.addFrameFact(f, x.MinHC(f))
	}
}

func TestKnowledgeResolvedRequiresRetrieval(t *testing.T) {
	ds := dataset.Uniform(50, 6, 71)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	teachAll(kb, x)
	o := ds.Objects[20]
	targets := []hilbert.Range{{Lo: o.HC, Hi: o.HC + 1}}
	if kb.resolved(targets) {
		t.Fatal("resolved before the object was retrieved")
	}
	kb.markRetrieved(o.ID)
	if !kb.resolved(targets) {
		t.Fatal("not resolved after retrieval with full knowledge")
	}
}

func TestKnowledgeResolvedEmptyGap(t *testing.T) {
	// The paper's key inference: two known adjacent frames rule out
	// everything between their HC values.
	ds := dataset.Uniform(50, 6, 73)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	kb.addFrameFact(10, x.MinHC(10))
	kb.addFrameFact(11, x.MinHC(11))
	lo := x.MinHC(10) + 1
	hi := x.MinHC(11)
	if lo < hi && !kb.resolved([]hilbert.Range{{Lo: lo, Hi: hi}}) {
		t.Fatal("adjacent known frames must resolve the gap between them")
	}
	// A non-adjacent pair must not resolve its gap.
	kb2 := newKnowledge(x)
	kb2.addFrameFact(10, x.MinHC(10))
	kb2.addFrameFact(13, x.MinHC(13))
	gapLo := x.MinHC(10) + 1
	gapHi := x.MinHC(13)
	if kb2.resolved([]hilbert.Range{{Lo: gapLo, Hi: gapHi}}) {
		t.Fatal("gap with unknown frames wrongly resolved")
	}
}

func TestKnowledgeDuplicateFactsIgnored(t *testing.T) {
	ds := dataset.Uniform(30, 5, 75)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	kb.addFrameFact(5, x.MinHC(5))
	n := kb.known[0].Len()
	kb.addFrameFact(5, x.MinHC(5))
	if kb.known[0].Len() != n {
		t.Fatal("duplicate fact extended the known list")
	}
	if got := len(kb.drainNew()); got != 2 { // catalog seed + frame 5
		t.Fatalf("drainNew returned %d objects, want 2", got)
	}
	if kb.drainNew() != nil {
		t.Fatal("drainNew must be empty after draining")
	}
}

func TestNextUsefulOrdersByArrival(t *testing.T) {
	ds := dataset.Uniform(60, 6, 77)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	teachAll(kb, x)
	// Two unretrieved objects: the one broadcast sooner (relative to
	// nowPos) must be chosen.
	a, b := 20, 40
	targets := []hilbert.Range{
		{Lo: ds.Objects[a].HC, Hi: ds.Objects[a].HC + 1},
		{Lo: ds.Objects[b].HC, Hi: ds.Objects[b].HC + 1},
	}
	pos, ok := kb.nextUseful(10, targets)
	if !ok || pos != x.FrameToPos(a) {
		t.Fatalf("nextUseful(10) = (%d,%v), want frame %d's position %d", pos, ok, a, x.FrameToPos(a))
	}
	// From between the two, the later one comes first.
	pos, ok = kb.nextUseful(30, targets)
	if !ok || pos != x.FrameToPos(b) {
		t.Fatalf("nextUseful(30) = (%d,%v), want %d", pos, ok, x.FrameToPos(b))
	}
	// From past both, wrap to the earlier one.
	pos, ok = kb.nextUseful(50, targets)
	if !ok || pos != x.FrameToPos(a) {
		t.Fatalf("nextUseful(50) = (%d,%v), want %d", pos, ok, x.FrameToPos(a))
	}
	// Retrieve both: nothing useful remains.
	kb.markRetrieved(a)
	kb.markRetrieved(b)
	if _, ok := kb.nextUseful(0, targets); ok {
		t.Fatal("nextUseful found work after full retrieval")
	}
}

func TestNextUsefulNeverReturnsResolvedQuick(t *testing.T) {
	ds := dataset.Uniform(40, 6, 79)
	x, _ := Build(ds, Config{Segments: 2})
	f := func(factsRaw []uint8, nowRaw uint8, loRaw, spanRaw uint16) bool {
		kb := newKnowledge(x)
		for _, fr := range factsRaw {
			fid := int(fr) % x.NF
			kb.addFrameFact(fid, x.MinHC(fid))
		}
		lo := uint64(loRaw) % x.DS.Curve.Size()
		hi := lo + uint64(spanRaw)%512 + 1
		if hi > x.DS.Curve.Size() {
			hi = x.DS.Curve.Size()
		}
		targets := []hilbert.Range{{Lo: lo, Hi: hi}}
		pos, ok := kb.nextUseful(int(nowRaw)%x.NF, targets)
		if !ok {
			return kb.resolved(targets)
		}
		return pos >= 0 && pos < x.NF && !kb.resolved(targets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameResolvedMultiObject(t *testing.T) {
	ds := dataset.Uniform(100, 6, 81)
	x, err := Build(ds, Config{Sizing: SizingPaperTable, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if x.NO < 3 {
		t.Skip("need multi-object frames")
	}
	kb := newKnowledge(x)
	f := 1
	kb.addFrameFact(f, x.MinHC(f))
	first, num := x.FrameObjects(f)
	segHi := x.DS.Curve.Size()
	lo, hi := x.MinHC(f), segHi

	// Only the first object is located: the frame is unresolved for its
	// whole span.
	if kb.frameResolved(f, lo, hi, segHi) {
		t.Fatal("frame with unlocated objects wrongly resolved")
	}
	// Locate and retrieve everything: resolved.
	for t2 := 0; t2 < num; t2++ {
		kb.addHeader(f, t2, ds.Objects[first+t2].HC)
		kb.markRetrieved(first + t2)
	}
	if !kb.frameResolved(f, lo, hi, segHi) {
		t.Fatal("fully retrieved frame not resolved")
	}
	// A range strictly between two located objects' HC values (with no
	// object inside) is resolved even without retrieval.
	kb2 := newKnowledge(x)
	kb2.addFrameFact(f, x.MinHC(f))
	kb2.addHeader(f, 1, ds.Objects[first+1].HC)
	gapLo := ds.Objects[first].HC + 1
	gapHi := ds.Objects[first+1].HC
	if gapLo < gapHi && !kb2.frameResolved(f, gapLo, gapHi, segHi) {
		t.Fatal("empty range between located headers not resolved")
	}
}

func TestProbeSyncsToFrameStart(t *testing.T) {
	ds := dataset.Uniform(50, 6, 83)
	x, _ := Build(ds, Config{})
	for _, probe := range []int64{0, 1, int64(x.FramePackets) - 1, int64(x.FramePackets),
		int64(x.CycleSlots()) - 1, 12345} {
		c := openClient(x.single, probe, nil)
		p := c.probe()
		if p < 0 || p >= x.NF {
			t.Fatalf("probe from %d landed on position %d", probe, p)
		}
		if c.rx.Pos() != x.FrameStartSlot(p) {
			t.Fatalf("probe from %d: tuner at slot %d, frame %d starts at %d",
				probe, c.rx.Pos(), p, x.FrameStartSlot(p))
		}
		st := c.Stats()
		if st.TuningPackets != 1 {
			t.Fatalf("probe must read exactly one packet, read %d", st.TuningPackets)
		}
	}
}

func TestWantTable(t *testing.T) {
	ds := dataset.Uniform(50, 6, 85)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 0, nil)
	p := 10
	f := x.PosToFrame(p)
	if !c.wantTable(p) {
		t.Fatal("unknown frame must want its table")
	}
	c.kb.addFrameFact(f, x.MinHC(f))
	if !c.wantTable(p) {
		t.Fatal("frame with unknown successor must still want the table")
	}
	c.kb.addFrameFact(f+1, x.MinHC(f+1))
	if c.wantTable(p) {
		t.Fatal("fully known neighborhood must skip the table")
	}
	// The last frame of a segment has no successor to learn.
	last := x.NF - 1
	c.kb.addFrameFact(last, x.MinHC(last))
	if c.wantTable(x.FrameToPos(last)) {
		t.Fatal("known last frame must not want a table")
	}
}

func TestKnowledgeLocateQueuesEachObjectOnce(t *testing.T) {
	ds := dataset.Uniform(30, 5, 87)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	kb.drainNew()
	kb.locate(7, ds.Objects[7].HC)
	kb.locate(7, ds.Objects[7].HC)
	if got := kb.drainNew(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("drainNew = %v, want [7]", got)
	}
}

func TestWalkTargetsStopsEarly(t *testing.T) {
	ds := dataset.Uniform(80, 6, 89)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	teachAll(kb, x)
	calls := 0
	kb.walkTargets(0, []hilbert.Range{{Lo: 0, Hi: x.DS.Curve.Size()}}, nil, nil, func(_, _, _ int) bool {
		calls++
		return false // stop immediately
	})
	if calls != 1 {
		t.Fatalf("walkTargets made %d calls after visit returned false", calls)
	}
}

func TestSpanHC(t *testing.T) {
	ds := dataset.Uniform(64, 6, 91)
	x, _ := Build(ds, Config{Segments: 4})
	kb := newKnowledge(x)
	var prevHi uint64
	for j := 0; j < 4; j++ {
		lo, hi := kb.spanHC(j)
		if j == 0 && lo != x.Splits[0] {
			t.Errorf("segment 0 span starts at %d", lo)
		}
		if j > 0 && lo != prevHi {
			t.Errorf("segment %d span not contiguous: %d vs %d", j, lo, prevHi)
		}
		if lo >= hi {
			t.Errorf("segment %d span empty", j)
		}
		prevHi = hi
	}
	if prevHi != x.DS.Curve.Size() {
		t.Errorf("last span ends at %d, want curve size", prevHi)
	}
}

func TestEngineTerminatesFromRandomKnowledge(t *testing.T) {
	// Robustness: whatever partial knowledge the client starts with,
	// a window query must terminate and be correct.
	ds := dataset.Uniform(80, 6, 93)
	x, _ := Build(ds, Config{Segments: 2})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		// Pre-seed arbitrary facts (a client that watched earlier
		// traffic).
		for j := 0; j < rng.Intn(20); j++ {
			fid := rng.Intn(x.NF)
			c.kb.addFrameFact(fid, x.MinHC(fid))
		}
		w := ds.Objects[rng.Intn(ds.N())].P
		win := hilbertWindow(w.X, w.Y)
		got, _ := c.Window(win)
		want := ds.WindowBrute(win)
		if !equalInts(got, want) {
			t.Fatalf("pre-seeded window mismatch")
		}
	}
}

// hilbertWindow builds a small window around a point, clamped to the
// order-6 grid used in these tests.
func hilbertWindow(cx, cy uint32) (w spatial.Rect) {
	const side = 64
	x0 := int64(cx) - 5
	y0 := int64(cy) - 5
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	x1 := x0 + 10
	y1 := y0 + 10
	if x1 >= side {
		x1 = side - 1
	}
	if y1 >= side {
		y1 = side - 1
	}
	return spatial.Rect{MinX: uint32(x0), MinY: uint32(y0), MaxX: uint32(x1), MaxY: uint32(y1)}
}
