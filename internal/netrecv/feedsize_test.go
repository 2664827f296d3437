// How big the feed's rings are: the ring size rounds up to a power of
// two, records are allocated a page at a time as frames land, and no
// frame can widen the records past the widest packet the catalog's
// broadcast sends.

package netrecv

import (
	"bytes"
	"testing"

	"dsi/internal/obs"
	"dsi/internal/wire"
)

// TestRingSlotsRoundToAPowerOfTwo: 20 ring slots keep 32, so a slot
// stays resident until the frame 32 slots on lands over it, and
// LagSlack's default is half the rounded size.
func TestRingSlotsRoundToAPowerOfTwo(t *testing.T) {
	opt := Options{RingSlots: 20}.withDefaults()
	if opt.RingSlots != 32 || opt.LagSlack != 16 {
		t.Fatalf("RingSlots 20 defaults to %d slots and LagSlack %d, want 32 and 16", opt.RingSlots, opt.LagSlack)
	}
	feed := NewFeed(1, Options{RingSlots: 20}, nil)
	offer := func(abs int64) {
		feed.Offer(wire.NetFrame{Kind: wire.NetData, Slot: uint32(abs), Ver: 1, Abs: abs, Payload: []byte{byte(abs)}})
	}
	for abs := int64(0); abs < 32; abs++ {
		offer(abs)
	}
	feed.Close() // every read answers at once: resident or lost
	if p, ver := feed.PacketAt(0, 0); ver != 1 || !bytes.Equal(p.Payload, []byte{0}) {
		t.Fatalf("slot 0 with slots up to 31 landed read back as v%d %q", ver, p.Payload)
	}
	offer(32)
	if _, ver := feed.PacketAt(0, 0); ver != 0 {
		t.Fatal("slot 0 still resident after slot 32 landed")
	}
	if p, ver := feed.PacketAt(0, 32); ver != 1 || !bytes.Equal(p.Payload, []byte{32}) {
		t.Fatalf("slot 32 read back as v%d %q", ver, p.Payload)
	}
}

// TestNewFeedAllocatesNoRecords: a feed of a million slots on each of
// four channels holds no records, and a frame allocates only the page
// of 256 records it lands in, each record as wide as the frame.
func TestNewFeedAllocatesNoRecords(t *testing.T) {
	const pagesPerRing = 1 << 20 / 256
	feed := NewFeed(4, Options{RingSlots: 1 << 20}, nil)
	if n := len(feed.pages); n != 4*pagesPerRing {
		t.Fatalf("%d pages for 4 × 2^20 slots, want %d", n, 4*pagesPerRing)
	}
	for p, pg := range feed.pages {
		if pg != nil {
			t.Fatalf("NewFeed allocated page %d (%d bytes)", p, len(pg))
		}
	}
	// Ring index 300 of channel 2: that channel's second page.
	feed.Offer(wire.NetFrame{Kind: wire.NetData, Ch: 2, Ver: 1, Abs: 5<<20 + 300, Payload: make([]byte, 40)})
	for p, pg := range feed.pages {
		want := 0
		if p == 2*pagesPerRing+1 {
			want = 256 * (recHeader + 40)
		}
		if len(pg) != want {
			t.Fatalf("after one 40-byte frame, page %d holds %d bytes, want %d", p, len(pg), want)
		}
	}
}

// TestOversizedFrameIsGarbage: a data frame one byte wider than the
// catalog's largest packet is counted as garbage and slotted nowhere —
// the clock, the resident slots and the record width stay as they were.
func TestOversizedFrameIsGarbage(t *testing.T) {
	cat, err := BuildCatalog(cacheMeta(400, 91), nil)
	if err != nil {
		t.Fatal(err)
	}
	widest := cat.X.Cfg.Capacity + wire.ParityHeaderSize
	met := obs.NewNetReceiverMetrics(obs.NewRegistry(), "test")
	feed := newFeed(cat, Options{RingSlots: 64}, met)
	payload := func(abs int64, n int) []byte { return bytes.Repeat([]byte{byte(abs)}, n) }
	var stream []byte
	for abs := int64(0); abs < 8; abs++ {
		var err error
		stream, err = wire.AppendNetFrame(stream, wire.NetFrame{Kind: wire.NetData, Ver: 1, Abs: abs, Payload: payload(abs, widest)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := feed.Consume(stream); err != nil {
		t.Fatal(err)
	}
	stride := feed.stride
	// Over slot 3 (resident) and at slot 9 (past the clock), as one
	// datagram would carry them.
	var over []byte
	for _, abs := range []int64{3, 9} {
		var err error
		over, err = wire.AppendNetFrame(over, wire.NetFrame{Kind: wire.NetData, Ver: 2, Abs: abs + 64, Payload: payload(abs, widest+1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n, err := feed.Consume(over); n != len(over) || err != nil {
		t.Fatalf("consumed %d of %d bytes, err %v", n, len(over), err)
	}
	if g := met.Garbage.Value(); g != 2 {
		t.Fatalf("%d frames counted as garbage, want 2", g)
	}
	if f := met.Frames.Value(); f != 8 {
		t.Fatalf("%d frames slotted, want 8", f)
	}
	if live := feed.Live(); live != 7 {
		t.Fatalf("live slot %d after oversized frames, want 7", live)
	}
	if feed.stride != stride {
		t.Fatalf("records widened from %d to %d bytes", stride, feed.stride)
	}
	feed.Close()
	for abs := int64(0); abs < 8; abs++ {
		if p, ver := feed.PacketAt(0, abs); ver != 1 || !bytes.Equal(p.Payload, payload(abs, widest)) {
			t.Fatalf("slot %d read back as v%d, %d bytes", abs, ver, len(p.Payload))
		}
	}
}
