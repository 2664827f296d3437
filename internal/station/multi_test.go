package station

import (
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

func buildLayout(t *testing.T, cfg dsi.Config, mc dsi.MultiConfig) *dsi.Layout {
	t.Helper()
	ds := dataset.Uniform(150, 6, 41)
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

func scanAll(t *testing.T, tx *MultiTransmitter) ([]MultiFrameInfo, error) {
	t.Helper()
	lay := tx.Layout()
	streams := make([]<-chan Packet, lay.Channels())
	for ch := 0; ch < lay.Channels(); ch++ {
		c := make(chan Packet, 64)
		go tx.CycleChannel(ch, c)
		streams[ch] = c
	}
	return ScanMulti(lay, streams)
}

// TestMultiStreamIsSelfDescribing: for every scheduler and channel
// count, one cycle of raw per-channel packets must reconstruct the
// exact broadcast metadata — every frame's minimum HC value, its table
// pointers (channel ids included), and every object header.
func TestMultiStreamIsSelfDescribing(t *testing.T) {
	for _, mc := range []dsi.MultiConfig{
		{Channels: 1},
		{Channels: 2, Scheduler: dsi.SchedStripe},
		{Channels: 3, Scheduler: dsi.SchedStripe},
		{Channels: 2, Scheduler: dsi.SchedSplit},
		{Channels: 4, Scheduler: dsi.SchedSplit},
	} {
		lay := buildLayout(t, dsi.Config{Segments: 2}, mc)
		x := lay.X
		tx, err := NewMultiTransmitter(lay)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := scanAll(t, tx)
		if err != nil {
			t.Fatalf("%v x%d: %v", mc.Scheduler, mc.Channels, err)
		}
		// The table format is a function of the layout: one channel
		// carries the classic 2-byte pointers, more carry channel ids.
		wantTab := wire.MCTableSize(x.E)
		if mc.Channels == 1 {
			wantTab = x.TableBytes()
		}
		tc, ts := lay.TablePlace(0)
		gotTab := 0
		for p := 0; p < x.TablePackets; p++ {
			gotTab += len(tx.Packet(tc, ts+p).Payload)
		}
		if gotTab != wantTab {
			t.Fatalf("%v x%d: table on air is %dB, want %dB", mc.Scheduler, mc.Channels, gotTab, wantTab)
		}
		total := 0
		for pos, fi := range frames {
			f := x.PosToFrame(pos)
			if fi.MinHC != x.MinHC(f) {
				t.Fatalf("%v x%d pos %d: min HC %d, want %d", mc.Scheduler, mc.Channels, pos, fi.MinHC, x.MinHC(f))
			}
			first, num := x.FrameObjects(f)
			if len(fi.Headers) != num {
				t.Fatalf("%v x%d pos %d: %d headers, want %d", mc.Scheduler, mc.Channels, pos, len(fi.Headers), num)
			}
			for o, h := range fi.Headers {
				obj := x.DS.Objects[first+o]
				if h.HC != obj.HC || h.X != obj.P.X || h.Y != obj.P.Y {
					t.Fatalf("%v x%d pos %d obj %d: header %+v != object %+v", mc.Scheduler, mc.Channels, pos, o, h, obj)
				}
			}
			for i, e := range fi.Entries {
				target := x.AppendTable(pos, nil).Entries[i]
				wantCh, wantIdx := lay.DataFrameIndex(target.TargetPos)
				if int(e.Ch) != wantCh || int(e.Frame) != wantIdx || e.MinHC != target.MinHC {
					t.Fatalf("%v x%d pos %d entry %d: %+v, want (%d,%d,%d)",
						mc.Scheduler, mc.Channels, pos, i, e, wantCh, wantIdx, target.MinHC)
				}
			}
			total += len(fi.Headers)
		}
		if total != x.DS.N() {
			t.Fatalf("%v x%d: %d headers total, want %d", mc.Scheduler, mc.Channels, total, x.DS.N())
		}
	}
}

// corrupt streams one channel cycle with fn applied to each packet
// before delivery and returns ScanMulti's error.
func corrupt(t *testing.T, mc dsi.MultiConfig, fn func(ch int, p Packet) Packet) error {
	t.Helper()
	lay := buildLayout(t, dsi.Config{}, mc)
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]<-chan Packet, lay.Channels())
	for ch := 0; ch < lay.Channels(); ch++ {
		c := make(chan Packet, 64)
		go func(ch int, out chan<- Packet) {
			for slot := 0; slot < lay.ChanLen(ch); slot++ {
				out <- fn(ch, tx.Packet(ch, slot))
			}
			close(out)
		}(ch, c)
		streams[ch] = c
	}
	_, err = ScanMulti(lay, streams)
	return err
}

// TestScanMultiErrorPaths: the receiver rejects streams that disagree
// with the catalog geometry it knows a priori.
func TestScanMultiErrorPaths(t *testing.T) {
	mc := dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit}

	err := corrupt(t, mc, func(ch int, p Packet) Packet {
		if ch == 1 {
			p.Slot++ // mid-cycle start: the first slot is not slot 0
		}
		return p
	})
	if err == nil || !strings.Contains(err.Error(), "want 0") {
		t.Errorf("mid-cycle start accepted: %v", err)
	}

	err = corrupt(t, mc, func(ch int, p Packet) Packet {
		if ch == 2 && p.Slot == 0 {
			p.Payload = p.Payload[:10] // object-start packet cut below the header width
		}
		return p
	})
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("truncated header packet accepted: %v", err)
	}

	err = corrupt(t, mc, func(ch int, p Packet) Packet {
		if ch == 0 && len(p.Payload) > 0 {
			p.Payload = p.Payload[:1] // table packets cut short
		}
		return p
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated table payload accepted: %v", err)
	}

	err = corrupt(t, mc, func(ch int, p Packet) Packet {
		p.Payload = make([]byte, 200) // oversized payload
		return p
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Errorf("oversized payload accepted: %v", err)
	}

	err = corrupt(t, mc, func(ch int, p Packet) Packet {
		p.Ch = 0 // every packet claims channel 0
		return p
	})
	if err == nil {
		t.Error("mislabelled channel accepted")
	}

	err = corrupt(t, mc, func(ch int, p Packet) Packet {
		if ch == 2 {
			p.Flags |= flagIndex // index packets on a data-only channel
		}
		return p
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected table packet") {
		t.Errorf("table packet on data channel accepted: %v", err)
	}

	lay := buildLayout(t, dsi.Config{}, mc)
	if _, err := ScanMulti(lay, make([]<-chan Packet, 1)); err == nil {
		t.Error("wrong stream count accepted")
	}
}

// TestScanSingleErrorPaths runs the scan's error paths over the
// single-channel layout: mid-cycle start, oversized payloads, nonzero
// channel ids, unflagged and truncated table packets.
func TestScanSingleErrorPaths(t *testing.T) {
	ds := dataset.Uniform(120, 6, 13)
	x, err := dsi.Build(ds, dsi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tx := singleTx(t, x)
	stream := func(fn func(p Packet) Packet) error {
		c := make(chan Packet, 64)
		go func() {
			for slot := 0; slot < x.CycleSlots(); slot++ {
				c <- fn(tx.Packet(0, slot))
			}
			close(c)
		}()
		_, err := ScanMulti(tx.Layout(), []<-chan Packet{c})
		return err
	}

	if err := stream(func(p Packet) Packet { p.Slot += 7; return p }); err == nil ||
		!strings.Contains(err.Error(), "want 0") {
		t.Errorf("mid-cycle scan start accepted: %v", err)
	}
	if err := stream(func(p Packet) Packet {
		p.Payload = make([]byte, 100)
		return p
	}); err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Errorf("oversized payload accepted: %v", err)
	}
	if err := stream(func(p Packet) Packet { p.Ch = 1; return p }); err == nil ||
		!strings.Contains(err.Error(), "channel") {
		t.Errorf("nonzero channel accepted by the single-channel scan: %v", err)
	}
	if err := stream(func(p Packet) Packet { p.Flags &^= flagIndex; return p }); err == nil ||
		!strings.Contains(err.Error(), "not flagged") {
		t.Errorf("unflagged table packet accepted: %v", err)
	}
	if err := stream(func(p Packet) Packet {
		if p.Flags&flagIndex != 0 && len(p.Payload) > 0 {
			p.Payload = p.Payload[:1]
		}
		return p
	}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated table payload accepted by the single-channel scan: %v", err)
	}
}
