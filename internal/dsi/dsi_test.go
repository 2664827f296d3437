package dsi

import (
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
)

func buildT(t testing.TB, n int, order uint, seed int64, cfg Config) *Index {
	t.Helper()
	ds := dataset.Uniform(n, order, seed)
	x, err := Build(ds, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x
}

func TestBuildDefaults(t *testing.T) {
	x := buildT(t, 200, 6, 1, Config{})
	if x.Cfg.Capacity != 64 || x.Cfg.IndexBase != 2 || x.Cfg.Segments != 1 {
		t.Errorf("defaults not applied: %+v", x.Cfg)
	}
	if x.NO != 1 || x.NF != 200 {
		t.Errorf("auto sizing wrong: NO=%d NF=%d", x.NO, x.NF)
	}
	// Auto sizing at 64B: (64-16)/18 = 2 entries fit; smallest base
	// with r^2 >= 200 is 15.
	if x.E != 2 || x.Base != 15 {
		t.Errorf("E=%d Base=%d, want 2/15", x.E, x.Base)
	}
	// Table: 16 own + 2*18 = 52 bytes -> one packet of 64.
	if x.TableBytes() != 52 || x.TablePackets != 1 {
		t.Errorf("table sizing: %d bytes, %d packets", x.TableBytes(), x.TablePackets)
	}
	if x.ObjPackets != 16 {
		t.Errorf("ObjPackets = %d, want 16", x.ObjPackets)
	}
	if x.FramePackets != 17 {
		t.Errorf("FramePackets = %d, want 17", x.FramePackets)
	}
	if x.CycleSlots() != 200*17 {
		t.Errorf("program length = %d", x.CycleSlots())
	}
}

func TestBuildUnitFactorSizing(t *testing.T) {
	x := buildT(t, 200, 6, 1, Config{Sizing: SizingUnitFactor})
	// E must satisfy 2^E >= 200, E = 8.
	if x.E != 8 || x.Base != 2 {
		t.Errorf("E=%d Base=%d, want 8/2", x.E, x.Base)
	}
	// Table: 16 own + 8*18 = 160 bytes -> 3 packets of 64.
	if x.TableBytes() != 160 || x.TablePackets != 3 {
		t.Errorf("table sizing: %d bytes, %d packets", x.TableBytes(), x.TablePackets)
	}
	if x.FramePackets != 19 {
		t.Errorf("FramePackets = %d, want 19", x.FramePackets)
	}
}

func TestBuildErrors(t *testing.T) {
	ds := dataset.Uniform(100, 6, 1)
	cases := []Config{
		{Capacity: 4},                            // too small
		{IndexBase: 1},                           // bad base
		{Segments: -1},                           // bad segments
		{ObjectBytes: -1},                        // bad object size
		{Sizing: SizingPaperTable, Capacity: 17}, // table cannot fit one entry beside own HC
		{Sizing: Sizing(99)},                     // unknown sizing
	}
	for i, cfg := range cases {
		if _, err := Build(ds, cfg); err == nil {
			t.Errorf("case %d (%+v): no error", i, cfg)
		}
	}
	empty := &dataset.Dataset{Curve: ds.Curve}
	if _, err := Build(empty, Config{}); err == nil {
		t.Error("empty dataset: no error")
	}
}

func TestBuildAnySegmentCount(t *testing.T) {
	// Segment counts are not tied to the index base: the navigation
	// engine is fact-driven and works with any interleaving.
	for _, m := range []int{1, 2, 3, 4, 5, 8} {
		if _, err := Build(dataset.Uniform(100, 6, 1), Config{Segments: m}); err != nil {
			t.Errorf("Segments=%d rejected: %v", m, err)
		}
	}
	if _, err := Build(dataset.Uniform(100, 6, 1), Config{IndexBase: 4, Segments: 16}); err != nil {
		t.Errorf("base 4, m=16 rejected: %v", err)
	}
}

func TestBaseToCover(t *testing.T) {
	cases := []struct{ nf, e, min, want int }{
		{10000, 2, 2, 100},
		{10000, 3, 2, 22}, // 22^3 = 10648
		{10000, 13, 2, 3}, // 2^13 = 8192 < 10000, 3^13 huge
		{10000, 14, 2, 2}, // 2^14 = 16384
		{200, 2, 2, 15},   // 15^2 = 225
		{8, 3, 2, 2},
		{100, 2, 4, 10}, // min base respected via growth
		{100, 4, 4, 4},  // 4^4 = 256 >= 100
		{1, 2, 2, 2},
	}
	for _, tc := range cases {
		if got := baseToCover(tc.nf, tc.e, tc.min); got != tc.want {
			t.Errorf("baseToCover(%d,%d,%d) = %d, want %d", tc.nf, tc.e, tc.min, got, tc.want)
		}
	}
}

func TestEntriesToCover(t *testing.T) {
	cases := []struct{ nf, base, want int }{
		{2, 2, 1},
		{3, 2, 2},
		{8, 2, 3}, // the paper's running example: nF=8 -> 3 entries
		{9, 2, 4},
		{10000, 2, 14},
		{10000, 4, 7},
		{1, 2, 1},
	}
	for _, tc := range cases {
		if got := entriesToCover(tc.nf, tc.base); got != tc.want {
			t.Errorf("entriesToCover(%d,%d) = %d, want %d", tc.nf, tc.base, got, tc.want)
		}
	}
}

func TestPaperTableSizing(t *testing.T) {
	// Paper sizing at capacity 64: (64-16)/18 = 2 entries fit, so
	// nF = 2^2 = 4 frames for 100 objects -> 25 objects per frame.
	x := buildT(t, 100, 6, 1, Config{Sizing: SizingPaperTable, Capacity: 64})
	if x.TablePackets != 1 {
		t.Errorf("paper sizing must use a one-packet table, got %d", x.TablePackets)
	}
	if x.NF != 4 || x.NO != 25 {
		t.Errorf("NF=%d NO=%d, want 4/25", x.NF, x.NO)
	}
	if x.TableBytes() > x.Cfg.Capacity {
		t.Errorf("table %dB exceeds packet %dB", x.TableBytes(), x.Cfg.Capacity)
	}
	// At capacity 512: (512-16)/18 = 27 entries fit; 2^27 > 100 so
	// nF = 100, NO = 1.
	x = buildT(t, 100, 6, 1, Config{Sizing: SizingPaperTable, Capacity: 512})
	if x.NF != 100 || x.NO != 1 {
		t.Errorf("NF=%d NO=%d, want 100/1", x.NF, x.NO)
	}
}

func TestPosFrameRoundTrip(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		for _, n := range []int{97, 100, 128} { // odd sizes exercise uneven segments
			x := buildT(t, n, 6, 2, Config{Segments: m})
			seen := make([]bool, x.NF)
			for pos := 0; pos < x.NF; pos++ {
				f := x.PosToFrame(pos)
				if f < 0 || f >= x.NF {
					t.Fatalf("m=%d n=%d: PosToFrame(%d) = %d out of range", m, n, pos, f)
				}
				if seen[f] {
					t.Fatalf("m=%d n=%d: frame %d broadcast twice", m, n, f)
				}
				seen[f] = true
				if back := x.FrameToPos(f); back != pos {
					t.Fatalf("m=%d n=%d: FrameToPos(PosToFrame(%d)) = %d", m, n, pos, back)
				}
			}
		}
	}
}

func TestInterleavingMatchesPaperFigure7(t *testing.T) {
	// With nF=8 and m=2 the broadcast order must interleave the two
	// halves: frames 0,4,1,5,2,6,3,7 (paper Figure 7 broadcasts
	// O6 O32 O11 O40 O17 O51 O27 O61).
	x := buildT(t, 8, 3, 3, Config{Segments: 2})
	want := []int{0, 4, 1, 5, 2, 6, 3, 7}
	for pos, f := range want {
		if got := x.PosToFrame(pos); got != f {
			t.Errorf("PosToFrame(%d) = %d, want %d", pos, got, f)
		}
	}
}

func TestSegmentsAscendingHCWithinSegment(t *testing.T) {
	x := buildT(t, 100, 6, 5, Config{Segments: 4})
	for j := 0; j < 4; j++ {
		var prev uint64
		firstSeen := false
		for pos := j; pos < x.NF; pos += 4 {
			hc := x.MinHC(x.PosToFrame(pos))
			if firstSeen && hc <= prev {
				t.Fatalf("segment %d not ascending at pos %d", j, pos)
			}
			prev, firstSeen = hc, true
		}
	}
}

func TestHCSegment(t *testing.T) {
	x := buildT(t, 100, 6, 5, Config{Segments: 4})
	for f := 0; f < x.NF; f++ {
		j := x.FrameSegment(f)
		if got := x.HCSegment(x.MinHC(f)); got != j {
			t.Errorf("HCSegment(minHC of frame %d) = %d, want %d", f, got, j)
		}
	}
	if got := x.HCSegment(0); got != 0 {
		t.Errorf("HCSegment(0) = %d", got)
	}
}

func TestTableAtMatchesLayout(t *testing.T) {
	x := buildT(t, 64, 6, 7, Config{Segments: 2})
	for pos := 0; pos < x.NF; pos++ {
		tab := x.TableAt(pos)
		if tab.OwnHC != x.MinHC(x.PosToFrame(pos)) {
			t.Fatalf("pos %d: own HC mismatch", pos)
		}
		if len(tab.Entries) != x.E {
			t.Fatalf("pos %d: %d entries, want %d", pos, len(tab.Entries), x.E)
		}
		dist := 1
		for i, e := range tab.Entries {
			wantPos := (pos + dist) % x.NF
			if e.TargetPos != wantPos {
				t.Fatalf("pos %d entry %d: target %d, want %d", pos, i, e.TargetPos, wantPos)
			}
			if e.MinHC != x.MinHC(x.PosToFrame(wantPos)) {
				t.Fatalf("pos %d entry %d: HC mismatch", pos, i)
			}
			dist *= x.Base
		}
	}
}

func TestProgramSlots(t *testing.T) {
	x := buildT(t, 50, 6, 9, Config{})
	lay := x.SingleLayout()
	for pos := 0; pos < x.NF; pos++ {
		start := x.FrameStartSlot(pos)
		for p := 0; p < x.FramePackets; p++ {
			slot := start + p
			if tp, part, ok := lay.SlotTable(0, slot); ok && (tp != pos || part != p) {
				t.Fatalf("slot %d: table packet %d of position %d, want %d of %d", slot, part, tp, p, pos)
			}
			if dp, off, ok := lay.SlotData(0, slot); ok && (dp != pos || off != p-x.TablePackets) {
				t.Fatalf("slot %d: data packet %d of position %d, want %d of %d", slot, off, dp, p-x.TablePackets, pos)
			}
			wantKind := broadcast.KindData
			if p < x.TablePackets {
				wantKind = broadcast.KindIndex
			}
			if s := lay.Air.Channels[0].At(slot); s.Kind != wantKind {
				t.Fatalf("slot %d: kind %v, want %v", slot, s.Kind, wantKind)
			}
		}
	}
}

func TestFrameObjectsPartialLastFrame(t *testing.T) {
	// 103 objects with paper-table sizing: NO > 1 and the last frame is
	// partial.
	ds := dataset.Uniform(103, 6, 4)
	x, err := Build(ds, Config{Sizing: SizingPaperTable, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for f := 0; f < x.NF; f++ {
		first, num := x.FrameObjects(f)
		if first != total {
			t.Fatalf("frame %d: first=%d, want %d", f, first, total)
		}
		if num <= 0 || num > x.NO {
			t.Fatalf("frame %d: num=%d", f, num)
		}
		total += num
	}
	if total != 103 {
		t.Errorf("frames cover %d objects, want 103", total)
	}
}

func TestIndexOverheadAndString(t *testing.T) {
	x := buildT(t, 100, 6, 1, Config{})
	if x.IndexOverheadBytes() != int64(100*x.TablePackets*64) {
		t.Errorf("IndexOverheadBytes = %d", x.IndexOverheadBytes())
	}
	if x.CycleBytes() != x.single.CycleBytes() {
		t.Error("CycleBytes mismatch")
	}
	if s := x.String(); s == "" {
		t.Error("empty String")
	}
	if SizingUnitFactor.String() != "unit-factor" || SizingPaperTable.String() != "paper-table" {
		t.Error("Sizing strings")
	}
	if Sizing(9).String() == "" {
		t.Error("unknown sizing string")
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}}
	for _, tc := range cases {
		if got := bitsFor(tc.n); got != tc.want {
			t.Errorf("bitsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Conservative.String() != "conservative" || Aggressive.String() != "aggressive" {
		t.Error("strategy strings")
	}
	if Strategy(9).String() != "strategy?" {
		t.Error("unknown strategy string")
	}
}
