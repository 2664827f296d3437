package wire

import (
	"slices"
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func buildLayout(t *testing.T, cfg dsi.Config, mc dsi.MultiConfig) *dsi.Layout {
	t.Helper()
	ds := dataset.Uniform(200, 6, 1)
	x, err := dsi.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, mc)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestTableMCRoundTrip: multi-channel tables survive the wire for every
// scheduler, and decoded pointers identify exactly the channel and
// per-channel frame index the layout placed each target frame at.
func TestTableMCRoundTrip(t *testing.T) {
	for _, mc := range []dsi.MultiConfig{
		{Channels: 1},
		{Channels: 2, Scheduler: dsi.SchedStripe},
		{Channels: 3, Scheduler: dsi.SchedSplit},
		{Channels: 4, Scheduler: dsi.SchedSplit},
	} {
		lay := buildLayout(t, dsi.Config{Segments: 2}, mc)
		x := lay.X
		framesOn := make([]int, lay.Channels())
		for ch := range framesOn {
			framesOn[ch] = lay.FramesOn(ch)
		}
		for pos := 0; pos < x.NF; pos++ {
			own, entries, err := TableMC(lay, pos)
			if err != nil {
				t.Fatal(err)
			}
			enc := EncodeTableMC(own, entries)
			gotOwn, got, err := DecodeTableMC(enc, framesOn)
			if err != nil {
				t.Fatalf("%v x%d pos %d: %v", mc.Scheduler, mc.Channels, pos, err)
			}
			// The append form decodes the same entries after a kept prefix.
			pre := MCEntry{MinHC: 7, Ch: 1, Frame: 2}
			appOwn, app, err := DecodeTableMCAppend(enc, framesOn, []MCEntry{pre})
			if err != nil || appOwn != gotOwn || len(app) != 1+len(got) || app[0] != pre || !slices.Equal(app[1:], got) {
				t.Fatalf("%v x%d pos %d: DecodeTableMCAppend = %v, %v, %v; DecodeTableMC = %v", mc.Scheduler, mc.Channels, pos, appOwn, app, err, got)
			}
			if gotOwn != x.AppendTable(pos, nil).OwnHC || len(got) != len(entries) {
				t.Fatalf("%v x%d pos %d: round trip mismatch", mc.Scheduler, mc.Channels, pos)
			}
			for i, e := range got {
				if e != entries[i] {
					t.Fatalf("entry %d: %+v != %+v", i, e, entries[i])
				}
				wantCh, wantIdx := lay.DataFrameIndex(x.AppendTable(pos, nil).Entries[i].TargetPos)
				if int(e.Ch) != wantCh || int(e.Frame) != wantIdx {
					t.Fatalf("entry %d points at (%d,%d), layout says (%d,%d)",
						i, e.Ch, e.Frame, wantCh, wantIdx)
				}
			}
		}
		if err := CheckLayoutTables(lay); err != nil {
			t.Fatalf("%v x%d: %v", mc.Scheduler, mc.Channels, err)
		}
	}
}

// TestDecodeTableMCErrors covers the receiver-side validation paths:
// truncated and misaligned payloads, pointers at nonexistent channels,
// and pointers outside a channel's frame count.
func TestDecodeTableMCErrors(t *testing.T) {
	framesOn := []int{4, 8}
	good := EncodeTableMC(7, []MCEntry{{MinHC: 9, Ch: 1, Frame: 7}})

	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"truncated below own HC", good[:10], "malformed"},
		{"misaligned entries", good[:len(good)-3], "malformed"},
		{"channel out of range", EncodeTableMC(7, []MCEntry{{Ch: 2, Frame: 0}}), "outside 2 channels"},
		{"frame out of range", EncodeTableMC(7, []MCEntry{{Ch: 1, Frame: 8}}), "outside channel 1"},
	}
	for _, c := range cases {
		if _, _, err := DecodeTableMC(c.buf, framesOn); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, _, err := DecodeTableMC(good, framesOn); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

// TestDecodeTableDistanceOutOfRange: a pointer distance valid for one
// cycle length is rejected against a shorter catalog geometry.
func TestDecodeTableDistanceOutOfRange(t *testing.T) {
	tab := dsi.Table{Pos: 0, OwnHC: 3, Entries: []dsi.TableEntry{{TargetPos: 5, MinHC: 9}}}
	buf, err := EncodeTable(tab, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(buf, 0, 4); err == nil {
		t.Error("out-of-range distance accepted")
	}
}

// TestDecodeHeaderTruncated: an object header needs its full width.
func TestDecodeHeaderTruncated(t *testing.T) {
	buf := EncodeHeader(ObjectHeader{X: 1, Y: 2, HC: 3})
	if _, err := DecodeHeader(buf[:HeaderSize-1]); err == nil {
		t.Error("truncated header accepted")
	}
}
