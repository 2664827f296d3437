package station

import (
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

// TestShardStreamsSelfDescribing: a sharded layout's unequal-cycle
// per-channel streams — hot shards cycling several times faster than
// the cold one — rebuild the complete broadcast metadata, and the
// on-air shard directory hands a receiver exactly the geometry it needs
// to validate the pointers.
func TestShardStreamsSelfDescribing(t *testing.T) {
	ds := dataset.Uniform(180, 7, 47)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately coprime shard sizes: no cycle is a multiple of
	// another, so the streams exercise genuinely unequal periods.
	bounds := []int{0, 11, 24, x.NF}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: len(bounds), Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for ch := 1; ch < lay.Channels(); ch++ {
		for prev := 1; prev < ch; prev++ {
			if lay.ChanLen(ch)%lay.ChanLen(prev) == 0 {
				t.Logf("note: channel %d cycle is a multiple of channel %d's", ch, prev)
			}
		}
	}
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver takes the per-channel geometry from the broadcast's
	// own directory: the codec is exercised through the full
	// transmitter -> scanner pipeline, not just in isolation.
	dirBytes, err := tx.Directory()
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]<-chan Packet, lay.Channels())
	for ch := 0; ch < lay.Channels(); ch++ {
		c := make(chan Packet, 64)
		go tx.CycleChannel(ch, c)
		streams[ch] = c
	}
	frames, err := ScanMultiDir(lay, dirBytes, streams)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pos, fi := range frames {
		f := x.PosToFrame(pos)
		if fi.MinHC != x.MinHC(f) {
			t.Fatalf("pos %d: min HC %d, want %d", pos, fi.MinHC, x.MinHC(f))
		}
		_, num := x.FrameObjects(f)
		if len(fi.Headers) != num {
			t.Fatalf("pos %d: %d headers, want %d", pos, len(fi.Headers), num)
		}
		for i, e := range fi.Entries {
			target := x.AppendTable(pos, nil).Entries[i]
			wantCh, wantIdx := lay.DataFrameIndex(target.TargetPos)
			if int(e.Ch) != wantCh || int(e.Frame) != wantIdx || e.MinHC != target.MinHC {
				t.Fatalf("pos %d entry %d: %+v, want (%d,%d,%d)", pos, i, e, wantCh, wantIdx, target.MinHC)
			}
		}
		total += len(fi.Headers)
	}
	if total != x.DS.N() {
		t.Fatalf("%d headers total, want %d", total, x.DS.N())
	}

	// A directory contradicting the air's geometry is rejected.
	bad := append([]byte(nil), dirBytes...)
	bad[len(bad)-1] ^= 1 // last channel's cycle length
	streams2 := []<-chan Packet{}
	for ch := 0; ch < lay.Channels(); ch++ {
		c := make(chan Packet, 1)
		close(c)
		streams2 = append(streams2, c)
	}
	if _, err := ScanMultiDir(lay, bad, streams2); err == nil {
		t.Fatal("contradictory directory accepted")
	}
}

// TestStaggeredStripeStreams: phase-staggered stripe channels (frames
// wrapped across the cycle seam included) still produce self-describing
// streams.
func TestStaggeredStripeStreams(t *testing.T) {
	ds := dataset.Uniform(150, 6, 41)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A nonzero switch cost makes the stagger offset a non-multiple of
	// the frame size, so some frames wrap the seam.
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedStripe, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := scanAll(t, tx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pos, fi := range frames {
		f := x.PosToFrame(pos)
		if fi.MinHC != x.MinHC(f) {
			t.Fatalf("pos %d: min HC %d, want %d", pos, fi.MinHC, x.MinHC(f))
		}
		total += len(fi.Headers)
	}
	if total != x.DS.N() {
		t.Fatalf("%d headers total, want %d", total, x.DS.N())
	}
}
