// The batched feed: Consume slots a whole buffer under one hold of the
// lock and must be indistinguishable from offering frame by frame, and
// both must hold what a map of the residency rule holds; the ring owns
// its bytes, so what PacketAt hands out has to survive the ring; and a
// reader is woken only for the slot it waits on, so no combination of
// transports, readers and Close may miss a wake-up.

package netrecv_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"time"

	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/station/stationtest"
	"dsi/internal/wire"
)

// frameScript turns fuzz bytes into a frame sequence a hostile or lossy
// link could deliver: data frames that step the clock forwards or
// backwards (reordering), duplicates, frames for a channel the
// broadcast does not have, and control frames of rising and falling
// versions. Six bytes make one frame.
func frameScript(script []byte, nch int) []wire.NetFrame {
	var frames []wire.NetFrame
	abs := int64(0)
	for ; len(script) >= 6; script = script[6:] {
		op, step, ch, ver, plen, fill := script[0], script[1], script[2], script[3], script[4], script[5]
		payload := bytes.Repeat([]byte{fill}, int(plen%40))
		switch op % 8 {
		case 0: // duplicate of the previous frame
			if len(frames) > 0 {
				frames = append(frames, frames[len(frames)-1])
				continue
			}
			fallthrough
		default: // data, the clock moving by -3..+12
			if abs += int64(step%16) - 3; abs < 0 {
				abs = 0
			}
			frames = append(frames, wire.NetFrame{
				Kind: wire.NetData, Flags: fill & 3, Ch: uint16(int(ch) % nch), Slot: uint32(step),
				Ver: 1 + uint32(ver%3), Abs: abs, Payload: payload,
			})
		case 1: // a channel out of range
			frames = append(frames, wire.NetFrame{Kind: wire.NetData, Ch: uint16(nch + int(ch)), Ver: 1, Abs: abs, Payload: payload})
		case 2:
			frames = append(frames, wire.NetFrame{Kind: wire.NetDir, Ver: uint32(ver % 4), Abs: abs, Payload: payload})
		case 3:
			frames = append(frames, wire.NetFrame{Kind: wire.NetFECDesc, Ver: uint32(ver % 4), Abs: abs, Payload: payload})
		}
	}
	return frames
}

// ringModel is the feed's residency rule without its storage: per
// channel and ring position, the frame with the newest absolute slot
// offered there is held, and a duplicate keeps the first.
type ringModel struct {
	nch  int
	ring int64
	held map[[2]int64]wire.NetFrame
}

func newRingModel(nch, ringSlots int) *ringModel {
	return &ringModel{nch: nch, ring: 1 << bits.Len(uint(ringSlots-1)), held: map[[2]int64]wire.NetFrame{}}
}

func (m *ringModel) offer(fr wire.NetFrame) {
	if fr.Kind != wire.NetData || int(fr.Ch) >= m.nch {
		return
	}
	at := [2]int64{int64(fr.Ch), fr.Abs % m.ring}
	if old, ok := m.held[at]; !ok || old.Abs < fr.Abs {
		m.held[at] = fr
	}
}

// check fails unless p is what the model holds for ch at abs: the frame
// as offered, or the lost slot when it holds none.
func (m *ringModel) check(t *testing.T, p station.Packet, ch int, abs int64) {
	t.Helper()
	fr, ok := m.held[[2]int64{int64(ch), abs % m.ring}]
	if !ok || fr.Abs != abs {
		if !reflect.DeepEqual(p, station.Packet{}) {
			t.Fatalf("channel %d slot %d is not resident but read back as %+v", ch, abs, p)
		}
		return
	}
	if int(p.Ch) != ch || p.Slot != fr.Slot || p.Flags != fr.Flags || p.Ver != fr.Ver || !bytes.Equal(p.Payload, fr.Payload) {
		t.Fatalf("channel %d slot %d read back as %+v, offered slot %d flags %d v%d %q",
			ch, abs, p, fr.Slot, fr.Flags, fr.Ver, fr.Payload)
	}
}

// FuzzFeedConsume: for any frame sequence, cut into any chunks, with
// any truncated tail, over a ring of any size from 1 to 64 slots, a
// feed fed through Consume (the way a transport carries partial frames
// across reads) and a twin offered the same frames one by one agree on
// every packet, the loss count, the clock, the control state and what
// they counted; and every packet is what the residency rule's model
// holds, so a storage fault the two feeds share shows too.
func FuzzFeedConsume(f *testing.F) {
	f.Add([]byte{4, 4, 0, 0, 9, 1, 4, 4, 1, 0, 9, 2, 4, 4, 2, 0, 9, 3, 2, 0, 0, 1, 5, 7, 3, 0, 0, 2, 5, 8}, []byte{7, 30, 200}, uint8(0), uint8(15))
	f.Add([]byte{5, 15, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 5, 0, 1, 0, 3, 2, 1, 0, 9, 0, 3, 3, 5, 15, 2, 1, 39, 4}, []byte{1}, uint8(5), uint8(19))
	f.Add([]byte{6, 15, 0, 0, 1, 1, 6, 15, 0, 0, 1, 2, 6, 15, 0, 0, 1, 3, 6, 15, 0, 0, 1, 4, 6, 1, 0, 0, 1, 5}, []byte{255, 255}, uint8(30), uint8(2))
	// Payloads growing mid-stream over a 5-slot ring, each filling its
	// record to the last byte: the records widen with full ones resident.
	f.Add([]byte{4, 4, 0, 0, 5, 1, 4, 4, 1, 0, 13, 2, 4, 4, 2, 0, 21, 3, 4, 4, 0, 0, 29, 4, 4, 3, 1, 0, 37, 5, 4, 3, 2, 0, 3, 6}, []byte{3}, uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, script, cuts []byte, tail, ring uint8) {
		const nch = 3
		ringSlots := 1 + int(ring)%64
		frames := frameScript(script, nch)
		var stream []byte
		var ends []int // stream offset one past each frame
		for _, fr := range frames {
			var err error
			if stream, err = wire.AppendNetFrame(stream, fr); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, len(stream))
		}
		// The link cuts the last bytes off: frames that end past the cut
		// never arrive whole.
		if int(tail) < len(stream) {
			stream = stream[:len(stream)-int(tail)]
		} else {
			stream = nil
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= len(stream) {
			whole++
		}

		opt := netrecv.Options{RingSlots: ringSlots, LagSlack: 6}
		metC := obs.NewNetReceiverMetrics(obs.NewRegistry(), "fuzz")
		metO := obs.NewNetReceiverMetrics(obs.NewRegistry(), "fuzz")
		batched := netrecv.NewFeed(nch, opt, metC)
		single := netrecv.NewFeed(nch, opt, metO)
		model := newRingModel(nch, ringSlots)
		for _, fr := range frames[:whole] {
			single.Offer(fr)
			model.offer(fr)
		}
		var carry []byte
		for i := 0; len(stream) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			if n > len(stream) {
				n = len(stream)
			}
			carry = append(carry, stream[:n]...)
			stream = stream[n:]
			used, err := batched.Consume(carry)
			if err != nil {
				t.Fatalf("well-formed stream refused: %v", err)
			}
			carry = carry[used:]
		}

		// A closed feed answers every read at once: resident or lost.
		batched.Close()
		single.Close()
		if b, s := batched.Live(), single.Live(); b != s {
			t.Fatalf("live slot %d, frame by frame %d", b, s)
		}
		for ch := 0; ch < nch; ch++ {
			for abs := int64(0); abs <= single.Live()+1; abs++ {
				bp, bv := batched.PacketAt(ch, abs)
				sp, sv := single.PacketAt(ch, abs)
				if bv != sv || !reflect.DeepEqual(bp, sp) {
					t.Fatalf("channel %d slot %d: batched (%+v, v%d), frame by frame (%+v, v%d)", ch, abs, bp, bv, sp, sv)
				}
				model.check(t, bp, ch, abs)
			}
		}
		if b, s := batched.LostSlots(), single.LostSlots(); b != s {
			t.Fatalf("%d lost slots, frame by frame %d", b, s)
		}
		bd, bdv := batched.DirectoryAt(0)
		sd, sdv := single.DirectoryAt(0)
		bf, bfv := batched.FECDescAt(0)
		sf, sfv := single.FECDescAt(0)
		if bdv != sdv || bfv != sfv || !bytes.Equal(bd, sd) || !bytes.Equal(bf, sf) {
			t.Fatalf("control state: batched dir v%d %q desc v%d %q, frame by frame dir v%d %q desc v%d %q",
				bdv, bd, bfv, bf, sdv, sd, sfv, sf)
		}
		if metC.Frames.Value() != metO.Frames.Value() || metC.Garbage.Value() != metO.Garbage.Value() {
			t.Fatalf("counted %d frames and %d garbage, frame by frame %d and %d",
				metC.Frames.Value(), metC.Garbage.Value(), metO.Frames.Value(), metO.Garbage.Value())
		}
	})
}

// slotFrames encodes every channel's frame of slots [from, to) in air
// order, each payload naming its own position.
func slotFrames(t testing.TB, nch int, from, to int64) []byte {
	t.Helper()
	var buf []byte
	for abs := from; abs < to; abs++ {
		for ch := 0; ch < nch; ch++ {
			var err error
			buf, err = wire.AppendNetFrame(buf, wire.NetFrame{
				Kind: wire.NetData, Ch: uint16(ch), Slot: uint32(abs), Ver: 1, Abs: abs,
				Payload: []byte(wantPayload(ch, abs)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf
}

func wantPayload(ch int, abs int64) string {
	return fmt.Sprintf("payload of channel %d at slot %06d", ch, abs)
}

// TestPacketAtPayloadOutlivesTheRing: the ring overwrites its entries in
// place, so what PacketAt returned must be the caller's own bytes —
// intact after the ring has lapped the slot twice.
func TestPacketAtPayloadOutlivesTheRing(t *testing.T) {
	const nch, ring = 2, 8
	feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: ring}, nil)
	if _, err := feed.Consume(slotFrames(t, nch, 0, ring)); err != nil {
		t.Fatal(err)
	}
	held, ver := feed.PacketAt(1, 3)
	if ver != 1 || string(held.Payload) != wantPayload(1, 3) {
		t.Fatalf("slot 3 read back as v%d %q", ver, held.Payload)
	}
	if _, err := feed.Consume(slotFrames(t, nch, ring, 3*ring)); err != nil {
		t.Fatal(err)
	}
	if got, _ := feed.PacketAt(1, 3+2*ring); string(got.Payload) != wantPayload(1, 3+2*ring) {
		t.Fatalf("the ring position was not lapped: %q", got.Payload)
	}
	if string(held.Payload) != wantPayload(1, 3) {
		t.Fatalf("a payload handed out by PacketAt was rewritten under its holder: %q", held.Payload)
	}
}

// TestWarmConsumeAllocatesNothing: once the ring's records exist,
// slotting a 64-frame read allocates nothing — a frame nobody reads
// costs a memcpy — and neither does a directory or FEC descriptor frame
// repeating the one the feed holds, as the station sends every
// CtrlEvery slots.
func TestWarmConsumeAllocatesNothing(t *testing.T) {
	const nch, slots = 4, 16 // 64 frames
	feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: slots}, obs.NewNetReceiverMetrics(obs.NewRegistry(), "test"))
	var buf []byte
	for _, fr := range []wire.NetFrame{
		{Kind: wire.NetDir, Ver: 3, Payload: []byte("the held directory")},
		{Kind: wire.NetFECDesc, Ver: 2, Payload: []byte("the held descriptor")},
	} {
		var err error
		if buf, err = wire.AppendNetFrame(buf, fr); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := len(buf)
	buf = append(buf, slotFrames(t, nch, 0, slots)...)
	frame := (len(buf) - ctrl) / (nch * slots)
	next := int64(0)
	step := func() {
		if _, err := feed.Consume(buf); err != nil {
			t.Fatal(err)
		}
		// The same read, one ring further on: restamp the absolute slots
		// of the data frames in place (bytes 14..22 of each frame).
		next += slots
		for i := 0; i < nch*slots; i++ {
			binary.BigEndian.PutUint64(buf[ctrl+i*frame+14:], uint64(next+int64(i/nch)))
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a warm Consume of 64 frames allocates %.0f times, want 0", n)
	}
	if live := feed.Live(); live != next-1 {
		t.Fatalf("live slot %d after consuming up to %d", live, next-1)
	}
	if dir, ver := feed.DirectoryAt(0); ver != 3 || string(dir) != "the held directory" {
		t.Fatalf("directory v%d %q", ver, dir)
	}
	if desc, ver := feed.FECDescAt(0); ver != 2 || string(desc) != "the held descriptor" {
		t.Fatalf("FEC descriptor v%d %q", ver, desc)
	}
}

// TestFeedReadIntoBufferAllocatesNothing: a run read with a buffer of
// the reader's own copies the ring entries into it and allocates
// nothing — the copy PacketAt has to allocate is the reader's to avoid.
func TestFeedReadIntoBufferAllocatesNothing(t *testing.T) {
	const nch, slots = 4, 16
	feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: slots}, obs.NewNetReceiverMetrics(obs.NewRegistry(), "test"))
	if _, err := feed.Consume(slotFrames(t, nch, 0, slots)); err != nil {
		t.Fatal(err)
	}
	var want [slots][nch]string
	for abs := range want {
		for ch := range want[abs] {
			want[abs][ch] = wantPayload(ch, int64(abs))
		}
	}
	buf := make([]byte, 0, slots*len(want[0][0]))
	run := make([]station.Packet, slots)
	sweep := func() {
		for ch := 0; ch < nch; ch++ {
			feed.ReadRunAt(run, buf, ch, 0)
			for abs, p := range run {
				if p.Ver != 1 || string(p.Payload) != want[abs][ch] {
					t.Fatalf("channel %d slot %d read back as v%d %q", ch, abs, p.Ver, p.Payload)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("%d runs of %d slots into the reader's buffer allocate %.0f times, want 0", nch, slots, n)
	}
}

// TestReadRunAtMatchesPacketAt holds a feed to the seam's run contract
// (stationtest.CheckRuns) from every slot of a filled stretch of every
// channel, and some slots of the stretch never arrived: those, and
// channels the broadcast does not have, read as lost slots, inside runs
// as on their own.
func TestReadRunAtMatchesPacketAt(t *testing.T) {
	const nch, slots = 3, 64
	feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: slots}, nil)
	// Gaps lie more than the reorder slack below the channel's newest
	// frame, so they are declared lost at once instead of awaited.
	gaps := map[[2]int64]bool{{1, 5}: true, {0, 20}: true, {0, 21}: true, {0, 22}: true, {2, 40}: true}
	for abs := int64(0); abs < slots; abs++ {
		for ch := int64(0); ch < nch; ch++ {
			if gaps[[2]int64{ch, abs}] {
				continue
			}
			b, err := wire.AppendNetFrame(nil, wire.NetFrame{
				Kind: wire.NetData, Ch: uint16(ch), Slot: uint32(abs), Ver: 1, Abs: abs,
				Payload: []byte(wantPayload(int(ch), abs)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := feed.Consume(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ch := 0; ch < nch; ch++ {
		if err := stationtest.CheckRuns(feed, ch, 0, 40, 1, 2, 16); err != nil {
			t.Fatal(err)
		}
	}
	for g := range gaps {
		if err := stationtest.CheckLost(feed, int(g[0]), g[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, ch := range []int{nch, nch + 9, -1} {
		if err := stationtest.CheckLost(feed, ch, 10, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := stationtest.CheckRun(feed, 1, -4, 12, 12*64); err != nil {
		t.Fatal(err)
	}
	if feed.LostSlots() == 0 {
		t.Fatal("no read was served as lost; the gaps went unexercised")
	}
}

// within fails the test if fn has not returned by the deadline: a
// missed wake-up shows as a hang, never as a wrong answer.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: a wake-up was missed", what, d)
	}
}

// TestFeedNeverMissesAWakeUp drives transports, readers, WaitLive and
// Close against one feed at once, lossless and lossy.
func TestFeedNeverMissesAWakeUp(t *testing.T) {
	const nch = 3

	// One read of many more slots than the ring holds: Consume slots
	// what fits and then blocks for room — which only the reader can
	// make, and the reader is asleep on a frame this very call slotted.
	t.Run("lossless, ring full inside one Consume", func(t *testing.T) {
		const ring, slots = 8, 400
		feed := netrecv.NewFeed(nch, netrecv.Options{Lossless: true, RingSlots: ring}, nil)
		within(t, 20*time.Second, "lossless stream", func() {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if _, ok := feed.WaitLive(10 * time.Second); !ok {
					t.Error("WaitLive gave up on a live feed")
				}
			}()
			go func() {
				defer wg.Done()
				for abs := int64(0); abs < slots; abs++ {
					for ch := 0; ch < nch; ch++ {
						if p, ver := feed.PacketAt(ch, abs); ver != 1 || string(p.Payload) != wantPayload(ch, abs) {
							t.Errorf("channel %d slot %d read back as v%d %q", ch, abs, ver, p.Payload)
							return
						}
					}
				}
			}()
			time.Sleep(10 * time.Millisecond) // let the reader block on slot 0 first
			if _, err := feed.Consume(slotFrames(t, nch, 0, slots)); err != nil {
				t.Error(err)
			}
			wg.Wait()
		})
		if lost := feed.LostSlots(); lost != 0 {
			t.Fatalf("lossless feed declared %d slots lost", lost)
		}
	})

	// Runs longer than the ring: the watermark must follow the run slot
	// by slot. Were it set to the run's end up front, the transport could
	// slot the frame a ring past the run's head over the head before the
	// reader was served it.
	t.Run("lossless, runs longer than the ring", func(t *testing.T) {
		const ring, slots, run = 8, 400, 20
		feed := netrecv.NewFeed(1, netrecv.Options{Lossless: true, RingSlots: ring}, nil)
		within(t, 20*time.Second, "lossless runs", func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				pkts := make([]station.Packet, run)
				for abs := int64(0); abs < slots; abs += run {
					feed.ReadRunAt(pkts, nil, 0, abs)
					for i, p := range pkts {
						if at := abs + int64(i); p.Ver != 1 || string(p.Payload) != wantPayload(0, at) {
							t.Errorf("slot %d read back as v%d %q", at, p.Ver, p.Payload)
							return
						}
					}
				}
			}()
			time.Sleep(10 * time.Millisecond) // let the reader block on slot 0 first
			if _, err := feed.Consume(slotFrames(t, 1, 0, slots)); err != nil {
				t.Error(err)
			}
			<-done
		})
		if lost := feed.LostSlots(); lost != 0 {
			t.Fatalf("lossless feed declared %d slots lost", lost)
		}
	})

	// Datagram-sized reads through Consume and single frames through
	// Offer, two readers on different slots, a reader parked on a slot
	// that never comes, and Close to end it.
	t.Run("lossy, two transports and two readers", func(t *testing.T) {
		const ring, slots = 64, 3000
		feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: ring, WaitTimeout: time.Minute}, nil)
		within(t, 20*time.Second, "lossy stream", func() {
			var readers, parked sync.WaitGroup
			read := func(from int64) {
				defer readers.Done()
				for abs := from; abs < slots; abs++ {
					for ch := 0; ch < nch; ch++ {
						// A reader that falls a ring behind is served losses;
						// what it is served as present must be right.
						if p, ver := feed.PacketAt(ch, abs); ver != 0 && string(p.Payload) != wantPayload(ch, abs) {
							t.Errorf("channel %d slot %d read back as %q", ch, abs, p.Payload)
							return
						}
					}
				}
			}
			readers.Add(2)
			go read(0)
			go read(7)
			parked.Add(1)
			go func() {
				defer parked.Done()
				if _, ver := feed.PacketAt(0, 1<<40); ver != 0 {
					t.Error("a slot that never aired was served")
				}
			}()
			var transports sync.WaitGroup
			transports.Add(2)
			go func() { // even slots, a slot per read
				defer transports.Done()
				for abs := int64(0); abs < slots; abs += 2 {
					if _, err := feed.Consume(slotFrames(t, nch, abs, abs+1)); err != nil {
						t.Error(err)
					}
				}
			}()
			go func() { // odd slots, a frame per call
				defer transports.Done()
				for abs := int64(1); abs < slots; abs += 2 {
					for ch := 0; ch < nch; ch++ {
						feed.Offer(wire.NetFrame{Kind: wire.NetData, Ch: uint16(ch), Ver: 1, Abs: abs, Payload: []byte(wantPayload(ch, abs))})
					}
				}
			}()
			transports.Wait()
			// The last slots of one parity may trail the other's: push the
			// clock on so no reader waits on reorder slack.
			if _, err := feed.Consume(slotFrames(t, nch, slots, slots+32)); err != nil {
				t.Error(err)
			}
			readers.Wait()
			feed.Close()
			parked.Wait()
		})
	})
}

// BenchmarkFeedConsume is the feed's steady state: 64-slot reads of a
// 4-channel stream of 64-byte payloads consumed into a warm ring of
// 2^14 slots, lap after lap; ns/frame is the cost of filing one frame.
func BenchmarkFeedConsume(b *testing.B) {
	const nch, ring, read = 4, 1 << 14, 64
	payload := bytes.Repeat([]byte{0xa5}, 64)
	var lap []byte // one ring's worth of slots, every channel, in air order
	for abs := int64(0); abs < ring; abs++ {
		for ch := 0; ch < nch; ch++ {
			var err error
			lap, err = wire.AppendNetFrame(lap, wire.NetFrame{
				Kind: wire.NetData, Ch: uint16(ch), Slot: uint32(abs), Ver: 1, Abs: abs, Payload: payload,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	frame := len(lap) / (nch * ring)
	chunk := frame * nch * read
	// restamp moves the lap's absolute slots one ring on.
	restamp := func() {
		for at := 14; at < len(lap); at += frame {
			binary.BigEndian.PutUint64(lap[at:], binary.BigEndian.Uint64(lap[at:])+ring)
		}
	}
	feed := netrecv.NewFeed(nch, netrecv.Options{RingSlots: ring}, nil)
	if _, err := feed.Consume(lap); err != nil { // every page allocated
		b.Fatal(err)
	}
	restamp()
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i++ {
		if at == len(lap) {
			b.StopTimer()
			restamp()
			at = 0
			b.StartTimer()
		}
		if _, err := feed.Consume(lap[at : at+chunk]); err != nil {
			b.Fatal(err)
		}
		at += chunk
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nch*read), "ns/frame")
}
