// Feed-level fault paths: dropped datagrams mid-group that the FEC
// layer must recover, and malformed or truncated network frames that
// the parser must reject without desyncing the consumer.

package netrecv_test

import (
	"math/rand"
	"testing"
	"time"

	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// pumpFeed emits the broadcast into the feed like a station would —
// demand-paced a bounded distance ahead of the consumer — dropping
// exactly the data slots drop selects (a lost datagram is precisely an
// un-offered frame). Returns a stop func.
func pumpFeed(feed *netrecv.Feed, src station.PacketSource, nch int, drop func(ch int, abs int64) bool) func() {
	stop := make(chan struct{})
	go func() {
		if desc, ver := src.FECDescAt(0); desc != nil {
			feed.Offer(wire.NetFrame{Kind: wire.NetFECDesc, Ver: ver, Abs: 0, Payload: desc})
		}
		if dir, ver := src.DirectoryAt(0); dir != nil {
			feed.Offer(wire.NetFrame{Kind: wire.NetDir, Ver: ver, Abs: 0, Payload: dir})
		}
		for abs := int64(0); ; abs++ {
			for abs > feed.Consumed()+4096 {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			select {
			case <-stop:
				return
			default:
			}
			for ch := 0; ch < nch; ch++ {
				if drop != nil && drop(ch, abs) {
					continue
				}
				pkt, ver := src.PacketAt(ch, abs)
				feed.Offer(wire.NetFrame{
					Kind: wire.NetData, Flags: pkt.Flags, Ch: uint16(ch),
					Slot: pkt.Slot, Ver: ver, Abs: abs, Payload: pkt.Payload,
				})
			}
		}
	}()
	return func() { close(stop); feed.Close() }
}

// TestFeedDroppedDatagramsFECRecovers drops periodic data-channel
// slots from the stream — the datagram loss model — and requires the
// FEC receiver to answer exactly, with parity doing real work.
func TestFeedDroppedDatagramsFECRecovers(t *testing.T) {
	ds, x, lay := netTestBed(t, 220, 1901)
	cfg := xorCode()
	mt, err := station.NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := netrecv.NewFeed(lay.Channels(), netrecv.Options{RingSlots: 1 << 14}, nil)
	stop := pumpFeed(feed, mt, lay.Channels(), func(ch int, abs int64) bool {
		return ch >= 1 && abs%97 == 0 // sparse drops across the data channels
	})
	defer stop()
	if _, ok := feed.WaitFEC(5 * time.Second); !ok {
		t.Fatal("no FEC descriptor offered")
	}
	rx, err := station.NewFECReceiver(lay, 1, feed, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fm := obs.NewFECMetrics(reg)
	rx.SetObs(fm)
	sess, err := dsi.Open(x, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 8; trial++ {
		sess.Tune(int64(trial)*int64(4*lay.ProbeCycle()), nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: dropped-datagram stream returned %d objects, want %d", trial, len(got), len(want))
		}
	}
	if feed.LostSlots() == 0 {
		t.Fatal("no slot was declared lost; the drop path went unexercised")
	}
	if fm.Recovered.Value() == 0 {
		t.Fatal("no packet was FEC-recovered; parity did no work")
	}
}

// TestFeedRejectsMalformedFrames pins the parser contract at the feed:
// a truncated frame is carried (not an error), garbage is an error
// that does not consume valid frames before it.
func TestFeedRejectsMalformedFrames(t *testing.T) {
	feed := netrecv.NewFeed(2, netrecv.Options{RingSlots: 64}, nil)
	frame, err := wire.AppendNetFrame(nil, wire.NetFrame{
		Kind: wire.NetData, Ch: 1, Slot: 9, Ver: 1, Abs: 5, Payload: []byte("abc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a single frame consumes nothing and is no
	// error: the transport waits for the rest.
	for cut := 0; cut < len(frame); cut++ {
		n, err := feed.Consume(frame[:cut])
		if n != 0 || err != nil {
			t.Fatalf("cut %d: consumed %d, err %v", cut, n, err)
		}
	}
	// A valid frame followed by garbage: the frame lands, the garbage
	// errors so the transport reconnects.
	buf := append(append([]byte(nil), frame...), 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad)
	n, err := feed.Consume(buf)
	if n != len(frame) || err == nil {
		t.Fatalf("frame+garbage: consumed %d of %d, err %v", n, len(buf), err)
	}
	if pkt, ver := feed.PacketAt(1, 5); ver != 1 || string(pkt.Payload) != "abc" {
		t.Fatalf("valid frame before garbage was lost: ver=%d payload=%q", ver, pkt.Payload)
	}
	// A frame for a channel the layout does not have is counted and
	// dropped, never slotted.
	feed.Offer(wire.NetFrame{Kind: wire.NetData, Ch: 7, Slot: 1, Ver: 1, Abs: 6, Payload: []byte("x")})
	if live := feed.Live(); live != 5 {
		t.Fatalf("out-of-range channel moved the clock to %d", live)
	}
}

// TestFeedLossDeclaration pins the loss semantics: a slot the clock
// has passed is served as version-0 loss, and an evicted slot likewise.
func TestFeedLossDeclaration(t *testing.T) {
	feed := netrecv.NewFeed(1, netrecv.Options{RingSlots: 32, WaitTimeout: 50 * time.Millisecond}, nil)
	offer := func(abs int64) {
		feed.Offer(wire.NetFrame{Kind: wire.NetData, Ch: 0, Slot: uint32(abs), Ver: 1, Abs: abs, Payload: []byte{1}})
	}
	for abs := int64(0); abs < 30; abs++ {
		if abs != 3 {
			offer(abs)
		}
	}
	// Slot 3 was never offered and the channel clock is 16+ past it.
	if _, ver := feed.PacketAt(0, 3); ver != 0 {
		t.Fatalf("hole served with version %d, want loss", ver)
	}
	// Slot 2 is still resident.
	if _, ver := feed.PacketAt(0, 2); ver != 1 {
		t.Fatal("resident slot served as loss")
	}
	// Push the window far past slot 2: evicted, now a loss.
	for abs := int64(30); abs < 80; abs++ {
		offer(abs)
	}
	if _, ver := feed.PacketAt(0, 2); ver != 0 {
		t.Fatal("evicted slot not served as loss")
	}
	if feed.LostSlots() != 2 {
		t.Fatalf("lost-slot count %d, want 2", feed.LostSlots())
	}
	// A slot beyond the clock times out to a loss rather than hanging.
	done := make(chan uint32, 1)
	go func() { _, ver := feed.PacketAt(0, 500); done <- ver }()
	select {
	case ver := <-done:
		if ver != 0 {
			t.Fatalf("future slot served with version %d", ver)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future-slot read hung past its timeout")
	}
}
