package station

import (
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func buildIdx(t *testing.T, cfg dsi.Config) *dsi.Index {
	t.Helper()
	ds := dataset.Uniform(150, 6, 41)
	x, err := dsi.Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// singleTx builds the one static transmitter over the index's
// single-channel layout.
func singleTx(t *testing.T, x *dsi.Index) *MultiTransmitter {
	t.Helper()
	tx, err := NewMultiTransmitter(x.SingleLayout())
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func streamCycle(t *testing.T, x *dsi.Index) []MultiFrameInfo {
	t.Helper()
	frames, err := scanAll(t, singleTx(t, x))
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestStreamIsSelfDescribing(t *testing.T) {
	for _, cfg := range []dsi.Config{
		{},
		{Segments: 2},
		{Capacity: 512},
		{Sizing: dsi.SizingUnitFactor},
		{Sizing: dsi.SizingPaperTable, Capacity: 64},
	} {
		x := buildIdx(t, cfg)
		frames := streamCycle(t, x)
		// The receiver must reconstruct the exact broadcast metadata:
		// every frame's minimum HC and every object header, from raw
		// bytes alone.
		total := 0
		for pos, fi := range frames {
			f := x.PosToFrame(pos)
			if fi.MinHC != x.MinHC(f) {
				t.Fatalf("cfg %+v pos %d: scanned min HC %d, want %d", cfg, pos, fi.MinHC, x.MinHC(f))
			}
			first, num := x.FrameObjects(f)
			if len(fi.Headers) != num {
				t.Fatalf("cfg %+v pos %d: %d headers, want %d", cfg, pos, len(fi.Headers), num)
			}
			for o, h := range fi.Headers {
				obj := x.DS.Objects[first+o]
				if h.HC != obj.HC || h.X != obj.P.X || h.Y != obj.P.Y {
					t.Fatalf("cfg %+v pos %d obj %d: header %+v does not match %+v", cfg, pos, o, h, obj)
				}
			}
			total += num
		}
		if total != x.DS.N() {
			t.Fatalf("cfg %+v: stream carried %d objects, want %d", cfg, total, x.DS.N())
		}
	}
}

func TestPacketFraming(t *testing.T) {
	x := buildIdx(t, dsi.Config{})
	tx := singleTx(t, x)
	for slot := 0; slot < 3*x.FramePackets; slot++ {
		p := tx.Packet(0, slot)
		if int(p.Slot) != slot {
			t.Fatalf("slot %d framed as %d", slot, p.Slot)
		}
		if len(p.Payload) > x.Cfg.Capacity {
			t.Fatalf("slot %d payload %dB over capacity", slot, len(p.Payload))
		}
		within := slot % x.FramePackets
		wantIndex := within < x.TablePackets
		if (p.Flags&flagIndex != 0) != wantIndex {
			t.Fatalf("slot %d index flag wrong", slot)
		}
		if wantIndex != (x.SingleLayout().Air.Channels[0].At(slot).Kind == broadcast.KindIndex) {
			t.Fatalf("slot %d kind disagrees with the simulator program", slot)
		}
	}
	// Packet is cyclic.
	if got := tx.Packet(0, x.CycleSlots()); got.Slot != 0 {
		t.Error("Packet must wrap around the cycle")
	}
}

func TestObjectPayloadDeterministic(t *testing.T) {
	x := buildIdx(t, dsi.Config{})
	tx := singleTx(t, x)
	slot := x.TablePackets // first data packet of position 0
	a := tx.Packet(0, slot)
	b := tx.Packet(0, slot)
	if string(a.Payload) != string(b.Payload) {
		t.Error("object payload not deterministic")
	}
}

func TestScanRejectsCorruptStream(t *testing.T) {
	x := buildIdx(t, dsi.Config{})
	tx := singleTx(t, x)
	scan := func(in <-chan Packet) error {
		_, err := ScanMulti(tx.Layout(), []<-chan Packet{in})
		return err
	}

	// Each corrupted stream gets its own channel, passed into its
	// producer goroutine by value: reusing one captured variable across
	// blocks races a finished producer's close against the next make.
	stream := func(fill func(out chan<- Packet)) <-chan Packet {
		ch := make(chan Packet, 64)
		go func(out chan<- Packet) {
			fill(out)
			close(out)
		}(ch)
		return ch
	}

	// Out-of-order slots.
	in := stream(func(out chan<- Packet) {
		p := tx.Packet(0, 0)
		p.Slot = 5
		out <- p
	})
	if scan(in) == nil {
		t.Error("out-of-order stream accepted")
	}

	// Truncated cycle.
	in = stream(func(out chan<- Packet) {
		for slot := 0; slot < x.FramePackets; slot++ {
			out <- tx.Packet(0, slot)
		}
	})
	if scan(in) == nil {
		t.Error("truncated stream accepted")
	}

	// Oversized payload.
	in = stream(func(out chan<- Packet) {
		p := tx.Packet(0, 0)
		p.Payload = make([]byte, x.Cfg.Capacity+1)
		out <- p
	})
	if scan(in) == nil {
		t.Error("oversized payload accepted")
	}

	// Missing index flag.
	in = stream(func(out chan<- Packet) {
		p := tx.Packet(0, 0)
		p.Flags = 0
		out <- p
	})
	if scan(in) == nil {
		t.Error("unflagged table packet accepted")
	}
}

func TestPaddingSlotsOfPartialLastFrame(t *testing.T) {
	// 103 objects with paper-table sizing leave padding slots in the
	// last frame; the transmitter must emit empty packets there and the
	// scanner must not invent objects.
	ds := dataset.Uniform(103, 6, 43)
	x, err := dsi.Build(ds, dsi.Config{Sizing: dsi.SizingPaperTable, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, fi := range streamCycle(t, x) {
		total += len(fi.Headers)
	}
	if total != 103 {
		t.Fatalf("scanned %d objects, want 103", total)
	}
}
