package wire

import (
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func shardedLayout(t *testing.T, bounds []int) *dsi.Layout {
	t.Helper()
	ds := dataset.Uniform(200, 7, 19)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bounds == nil {
		bounds = []int{0, 13, 60, x.NF}
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: len(bounds), Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestShardDirRoundTrip: the directory carries exactly the per-channel
// geometry the layout defines, and the decoded frame counts validate
// the layout's own multi-channel tables.
func TestShardDirRoundTrip(t *testing.T) {
	lay := shardedLayout(t, nil)
	buf, err := EncodeShardDir(lay)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != DirSize(lay.Channels()) {
		t.Fatalf("directory is %dB, want %d", len(buf), DirSize(lay.Channels()))
	}
	dir, err := DecodeShardDir(buf)
	if err != nil {
		t.Fatal(err)
	}
	bounds := lay.ShardBounds()
	for ch, e := range dir {
		wantKind := uint8(DirData)
		wantStart := 0
		if ch == lay.StartCh {
			wantKind = DirIndex
		} else {
			wantStart = bounds[ch-1]
		}
		if e.Kind != wantKind || int(e.StartFrame) != wantStart ||
			int(e.Frames) != lay.FramesOn(ch) || int(e.CycleSlots) != lay.ChanLen(ch) {
			t.Fatalf("channel %d: entry %+v (want kind %d start %d frames %d cycle %d)",
				ch, e, wantKind, wantStart, lay.FramesOn(ch), lay.ChanLen(ch))
		}
	}
	// The decoded geometry validates the layout's own tables.
	framesOn := FramesOnDir(dir)
	tables, err := EncodeLayoutTables(lay)
	if err != nil {
		t.Fatal(err)
	}
	for pos, tab := range tables {
		if _, _, err := DecodeTableMC(tab[:MCTableSize(lay.X.E)], framesOn); err != nil {
			t.Fatalf("position %d: table rejected by directory geometry: %v", pos, err)
		}
	}
}

// TestShardDirSplitLayout: split layouts (balanced blocks) are
// directory-describable too — the degenerate uniform shard map.
func TestShardDirSplitLayout(t *testing.T) {
	ds := dataset.Uniform(150, 7, 23)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeShardDir(lay)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DecodeShardDir(buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for ch, e := range dir {
		if ch == lay.StartCh {
			continue
		}
		total += int(e.Frames)
	}
	if total != x.NF {
		t.Fatalf("data shards cover %d frames, want %d", total, x.NF)
	}
}

// TestShardDirErrors covers the decoder's validation and the encoder's
// scheduler guard.
func TestShardDirErrors(t *testing.T) {
	lay := shardedLayout(t, nil)
	buf, err := EncodeShardDir(lay)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeShardDir(buf[:len(buf)-3]); err == nil {
		t.Error("truncated directory accepted")
	}
	if _, err := DecodeShardDir(nil); err == nil {
		t.Error("empty directory accepted")
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 7 // unknown kind
	if _, err := DecodeShardDir(bad); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind accepted: %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[DirEntrySize+2]++ // second channel's shard start off by one
	if _, err := DecodeShardDir(bad); err == nil || !strings.Contains(err.Error(), "starts at") {
		t.Errorf("non-contiguous shards accepted: %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[0] = DirData      // no index channel left
	bad[1], bad[2] = 0, 0 // make it a data shard starting at 0
	if _, err := DecodeShardDir(bad); err == nil {
		t.Error("directory without an index channel accepted")
	}

	// Stripe layouts have no index channel to describe.
	ds := dataset.Uniform(100, 7, 29)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stripe, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedStripe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeShardDir(stripe); err == nil {
		t.Error("stripe layout accepted by EncodeShardDir")
	}
}

// TestReserveMCPtrLiftsTightBudget is the wire-side contract of the
// dsi.Config.ReserveMCPtr build option: an index whose tables fill
// their packet budget to within E bytes is rejected by
// EncodeLayoutTables (the wider multi-channel pointers would overflow),
// and rebuilding with the reservation lifts the layout without touching
// the narrow single-channel encoding.
func TestReserveMCPtrLiftsTightBudget(t *testing.T) {
	ds := dataset.Uniform(256, 7, 37)
	tight := dsi.Config{Capacity: 32, Sizing: dsi.SizingUnitFactor}
	x, err := dsi.Build(ds, tight)
	if err != nil {
		t.Fatal(err)
	}
	// The plain build's own (narrow) tables fit...
	if _, err := EncodeLayoutTables(x.SingleLayout()); err != nil {
		t.Fatalf("narrow tables rejected: %v", err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedSplit})
	if err != nil {
		t.Fatal(err)
	}
	// ...but the multi-channel format overflows the budget.
	if _, err := EncodeLayoutTables(lay); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("tight budget accepted for multi-channel tables: %v", err)
	}

	reserved := tight
	reserved.ReserveMCPtr = true
	xr, err := dsi.Build(ds, reserved)
	if err != nil {
		t.Fatal(err)
	}
	layr, err := dsi.NewLayout(xr, dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedSplit})
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := EncodeLayoutTables(layr)
	if err != nil {
		t.Fatalf("reserved build still rejected: %v", err)
	}
	if len(tabs) != xr.NF {
		t.Fatalf("%d tables, want %d", len(tabs), xr.NF)
	}
	// The reservation also keeps the narrow format valid (it only adds
	// headroom).
	if _, err := EncodeLayoutTables(xr.SingleLayout()); err != nil {
		t.Fatalf("narrow tables rejected after reservation: %v", err)
	}
	// Sharded layouts go through the same budget check.
	shardLay, err := dsi.NewLayout(xr, dsi.MultiConfig{
		Channels: 3, Scheduler: dsi.SchedShard, ShardBounds: []int{0, 50, xr.NF}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeLayoutTables(shardLay); err != nil {
		t.Fatalf("sharded layout rejected after reservation: %v", err)
	}
}

// TestBoundsFromDirRoundTrip: the shard boundaries a layout was built
// with survive the encode/decode/extract round trip — the path a
// receiver rebuilds its layout through after a directory version bump.
func TestBoundsFromDirRoundTrip(t *testing.T) {
	want := []int{0, 13, 60, 200}
	lay := shardedLayout(t, want)
	buf, err := EncodeShardDir(lay)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DecodeShardDir(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := BoundsFromDir(dir)
	if len(got) != len(want) {
		t.Fatalf("bounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds %v, want %v", got, want)
		}
	}
}
