package wire

import (
	"testing"
	"testing/quick"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func TestTableRoundTrip(t *testing.T) {
	ds := dataset.Uniform(200, 6, 1)
	for _, cfg := range []dsi.Config{{}, {Segments: 2}, {Sizing: dsi.SizingUnitFactor}, {Capacity: 512}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < x.NF; pos++ {
			want := x.TableAt(pos)
			buf, err := EncodeTable(want, x.NF)
			if err != nil {
				t.Fatalf("cfg %+v pos %d: %v", cfg, pos, err)
			}
			got, err := DecodeTable(buf, pos, x.NF)
			if err != nil {
				t.Fatalf("cfg %+v pos %d: %v", cfg, pos, err)
			}
			if got.OwnHC != want.OwnHC || len(got.Entries) != len(want.Entries) {
				t.Fatalf("cfg %+v pos %d: round trip mismatch", cfg, pos)
			}
			for i := range want.Entries {
				if got.Entries[i] != want.Entries[i] {
					t.Fatalf("cfg %+v pos %d entry %d: %+v != %+v",
						cfg, pos, i, got.Entries[i], want.Entries[i])
				}
			}
		}
	}
}

func TestTableSizeMatchesIndexAccounting(t *testing.T) {
	ds := dataset.Uniform(300, 6, 2)
	for _, cfg := range []dsi.Config{{}, {Capacity: 128}, {Capacity: 512}, {Sizing: dsi.SizingUnitFactor}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if TableSize(x.E) != x.TableBytes() {
			t.Errorf("cfg %+v: wire size %d != index accounting %d",
				cfg, TableSize(x.E), x.TableBytes())
		}
		buf, err := EncodeTable(x.TableAt(0), x.NF)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != x.TableBytes() {
			t.Errorf("cfg %+v: encoded %dB, accounting says %dB", cfg, len(buf), x.TableBytes())
		}
	}
}

// TestEncodeLayoutTablesFitBudget: the single-channel layout's tables go
// on air in the classic format, at exactly the size the frame sizing
// accounts for.
func TestEncodeLayoutTablesFitBudget(t *testing.T) {
	ds := dataset.Uniform(500, 6, 3)
	for _, cfg := range []dsi.Config{{}, {Capacity: 32}, {Capacity: 512, Segments: 2},
		{Sizing: dsi.SizingPaperTable, Capacity: 64}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lay := x.SingleLayout()
		tables, err := EncodeLayoutTables(lay)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(tables) != x.NF {
			t.Fatalf("cfg %+v: %d tables for %d frames", cfg, len(tables), x.NF)
		}
		for pos, tab := range tables {
			if len(tab) != x.TableBytes() || len(tab) != LayoutTableSize(lay) {
				t.Fatalf("cfg %+v pos %d: table %dB, accounting %dB, LayoutTableSize %dB",
					cfg, pos, len(tab), x.TableBytes(), LayoutTableSize(lay))
			}
			if _, err := DecodeTable(tab, pos, x.NF); err != nil {
				t.Fatalf("cfg %+v pos %d: classic decode: %v", cfg, pos, err)
			}
		}
	}
}

func TestEncodeTableDistanceOverflow(t *testing.T) {
	// A pointer distance beyond 65,535 frames cannot be encoded in the
	// paper's 2 bytes.
	tab := dsi.Table{Pos: 0, Entries: []dsi.TableEntry{{TargetPos: 70000, MinHC: 1}}}
	if _, err := EncodeTable(tab, 100000); err == nil {
		t.Error("oversized distance accepted")
	}
}

func TestDecodeTableErrors(t *testing.T) {
	if _, err := DecodeTable(make([]byte, 10), 0, 100); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := DecodeTable(make([]byte, hcBytes+7), 0, 100); err == nil {
		t.Error("misaligned payload accepted")
	}
	// A zero pointer distance is invalid.
	tab := dsi.Table{Pos: 5, OwnHC: 9, Entries: []dsi.TableEntry{{TargetPos: 6, MinHC: 10}}}
	buf, err := EncodeTable(tab, 100)
	if err != nil {
		t.Fatal(err)
	}
	buf[hcBytes+hcBytes] = 0
	buf[hcBytes+hcBytes+1] = 0
	if _, err := DecodeTable(buf, 5, 100); err == nil {
		t.Error("zero distance accepted")
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(x, y uint32, hc uint64) bool {
		h := ObjectHeader{X: x, Y: y, HC: hc}
		got, err := DecodeHeader(EncodeHeader(h))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderSizeWithinObject(t *testing.T) {
	if HeaderSize != 32 {
		t.Errorf("HeaderSize = %d, want 32 (16B coordinate + 16B HC)", HeaderSize)
	}
	if _, err := DecodeHeader(make([]byte, HeaderSize-1)); err == nil {
		t.Error("short header accepted")
	}
}

func TestTableWrapAroundPointer(t *testing.T) {
	// A pointer from the cycle's last position wraps to the front.
	tab := dsi.Table{Pos: 99, OwnHC: 5, Entries: []dsi.TableEntry{{TargetPos: 0, MinHC: 7}}}
	buf, err := EncodeTable(tab, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(buf, 99, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].TargetPos != 0 {
		t.Errorf("wrapped pointer decoded to %d, want 0", got.Entries[0].TargetPos)
	}
}
