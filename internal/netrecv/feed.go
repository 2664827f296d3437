// Package netrecv is the client side of the network station: receivers
// that implement dsi.Receiver over a real transport (bare HTTP
// streams, UDP unicast subscriptions, UDP multicast groups) instead of
// an in-process packet source.
//
// The design inverts nothing above the transport. The station emits
// position-stamped net frames (wire.NetFrame); a Feed reassembles them
// into per-channel ring buffers and presents the result as a
// station.PacketSource — the exact interface the in-process
// WireReceiver already decodes from. All byte-level
// machinery (index-table decoding, versioned directory adoption,
// FEC recovery, phased re-tuning) therefore runs unchanged on top of a
// network link, and a loss-free link is regression-enforced
// bit-identical to in-process replay.
//
// Loss translates naturally: a UDP datagram — one slot of the
// subscription — that never arrives leaves a hole in each channel's
// ring; when the channel's high-water mark passes the
// hole the Feed serves the zero packet with version 0, which the
// decoding layer treats exactly like a simulator-injected slot loss —
// and FEC recovers it the same way. A severed HTTP stream is a burst
// of such holes between disconnect and reconnect; the absolute slot
// clock is global, so reconnection needs no re-anchoring unless a
// directory swap happened in the gap (the in-band control frames carry
// the bump, and the standard Poll path adopts it).
//
// Invariants:
//
//   - The ring owns its bytes and a read copies out of it: per channel
//     the ring is one flat store of fixed-width records, a header (abs,
//     slot, version, length, flags) and the payload, the record for abs
//     at index abs & (ring-1). An arriving frame is filed straight
//     from its bytes: wire.ParseNetFrame validates its header once and
//     the record's fields are read out of the wire.NetFrameView, so no
//     decoded frame is copied on the way. The payload is copied into
//     the record (so the caller may reuse its read buffer, and a frame
//     nobody reads costs a memcpy and no allocation once its page of
//     records exists); Offer files a frame's encoding the same way.
//     ReadRunAt copies the records into the
//     reader's buffer while it holds the lock, so ring eviction never
//     invalidates a slice an upper layer still holds. A reader with a
//     buffer of sufficient capacity allocates nothing; PacketAt, the
//     read without one, gets a fresh copy it may keep.
//   - A frame wakes a blocked read only once the global clock has
//     reached the earliest slot anyone waits on: every rule that ends
//     a wait (arrival, eviction, reorderSlack, LagSlack) needs a frame
//     at or past it. Close, time-outs and a consumer advancing past a
//     full lossless ring wake unconditionally.
//   - A read never blocks forever in lossy mode: a slot is declared
//     lost when the channel clock passes it, the global clock outruns
//     it by LagSlack, the wait times out, or the feed closes.
//   - In lossless mode (loopback regression tests) Offer blocks for
//     ring space and a read waits indefinitely, so the byte stream
//     is consumed exactly once and in order, with TCP backpressure
//     pacing the server.
package netrecv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// noWaiter is Feed.awaited when no reader is blocked: no clock reaches it.
const noWaiter = math.MaxInt64

// reorderSlack is how many slots past a pending position the channel
// clock may run before the position is declared lost — headroom for
// datagram reordering without delaying loss detection noticeably.
const reorderSlack = 16

// Options tune a network receiver's feed and transport.
type Options struct {
	// RingSlots is the per-channel reassembly window (default 4096),
	// rounded up to a power of two: with 20 the feed keeps 32 slots.
	RingSlots int
	// LagSlack declares a pending slot lost once the global high-water
	// mark is this many slots past it (default half the rounded
	// RingSlots).
	LagSlack int64
	// WaitTimeout bounds the wall-clock wait for a slot that has not
	// arrived (default 5s); on expiry the slot is served as lost.
	WaitTimeout time.Duration
	// Lossless switches the feed to the regression-test discipline:
	// Offer blocks for ring space instead of evicting, and a read
	// never times a slot out. Use only with a Block-mode station.
	Lossless bool
	// DialTimeout bounds transport dials and the bootstrap fetch
	// (default 5s).
	DialTimeout time.Duration
	// Registry, when set, registers the netrecv_* metric families.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RingSlots <= 0 {
		o.RingSlots = 4096
	}
	o.RingSlots = 1 << bits.Len(uint(o.RingSlots-1))
	if o.LagSlack <= 0 {
		o.LagSlack = int64(o.RingSlots / 2)
	}
	if o.WaitTimeout <= 0 {
		o.WaitTimeout = 5 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// A ring record: the header of the frame it holds, then the payload.
// recAbs holds abs+1, so a record no frame has landed in reads 0.
const (
	recAbs    = 0  // uint64
	recSlot   = 8  // uint32
	recVer    = 12 // uint32
	recLen    = 16 // uint16
	recFlags  = 18 // byte
	recHeader = 19
)

// maxPageShift sizes a page of records: at most 256 of one channel's
// slots, allocated the first time a frame lands in it. A receiver is
// built and tuned in long before its ring wraps, so its construction
// pays for the pages its first frames land in, not for the whole ring.
const maxPageShift = 8

// Feed reassembles net frames into a station.PacketSource: per-channel
// rings of records over the absolute slot clock plus the latest in-band
// control state.
type Feed struct {
	nch  int
	ring int64 // a power of two
	opt  Options
	met  *obs.NetReceiverMetrics

	mu   sync.Mutex
	cond *sync.Cond

	// pages holds the records: channel ch's for ring index i is record
	// g = ch*ring + i, in page g>>pageShift (a page is never wider than a
	// ring, so it holds one channel's records); a nil page has never been
	// written. Every record is stride bytes: the header and the widest
	// payload slotted so far.
	pages     [][]byte
	pageShift uint
	stride    int
	// maxPayload is the widest data payload the feed slots; a wider one
	// is garbage. A receiver built from a catalog sets it to the
	// catalog's largest packet.
	maxPayload int

	high    []int64 // per channel: highest offered abs + 1
	highAll int64

	// awaited is the earliest slot a blocked reader waits on, noWaiter
	// when nobody does. A wake-up clears it; readers that go back to
	// waiting register again.
	awaited int64

	// timer is the feed's one deadline timer, and stop ends the goroutine
	// that serves it (expiring waits for it); the first timed wait makes
	// both and Close ends them. A blocked reader keeps its deadline to itself and, before it
	// sleeps, makes sure the timer fires by then: armed is the deadline
	// the timer is set for, the zero time once it has fired. Firing
	// wakes every reader; each checks its own deadline, and those still
	// waiting arm the timer again.
	timer    *time.Timer
	stop     chan struct{}
	expiring sync.WaitGroup
	armed    time.Time

	dir     []byte
	dirVer  uint32
	desc    []byte
	descVer uint32

	// lastConsumed is the lossless-mode watermark: the highest abs the
	// consumer has asked for, -1 before the first read. Offer blocks
	// while a frame would land more than a ring ahead of it; the first
	// data frame anchors an unset watermark so a receiver joining a
	// long-running station does not deadlock its own stream.
	lastConsumed int64

	lost int64

	closed bool
}

// NewFeed builds a feed for a broadcast of nch channels. met may be
// nil. It allocates no records: a page of them is allocated the first
// time a frame lands in it. It slots data payloads up to
// wire.MaxNetPayload bytes wide; the receivers cap that at their
// catalog's largest packet.
func NewFeed(nch int, opt Options, met *obs.NetReceiverMetrics) *Feed {
	opt = opt.withDefaults()
	f := &Feed{
		nch:        nch,
		ring:       int64(opt.RingSlots),
		opt:        opt,
		met:        met,
		pageShift:  min(uint(bits.TrailingZeros(uint(opt.RingSlots))), maxPageShift),
		stride:     recHeader,
		maxPayload: wire.MaxNetPayload,
		high:       make([]int64, nch),
	}
	f.pages = make([][]byte, int64(nch)*f.ring>>f.pageShift)
	f.lastConsumed = -1
	f.awaited = noWaiter
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Consumed returns the highest absolute slot the consumer has asked
// for, -1 before the first read. Demand-paced emitters (tests) key off
// it to stay a bounded distance ahead of the consumer.
func (f *Feed) Consumed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastConsumed
}

// LostSlots returns how many reads this feed has served as lost.
func (f *Feed) LostSlots() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lost
}

// Close releases every waiter; pending and future reads serve losses.
// It returns once the feed's timer has stopped.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.timer != nil && !f.closed {
		f.timer.Stop()
		close(f.stop)
	}
	f.closed = true
	f.wakeAll()
	f.mu.Unlock()
	f.expiring.Wait()
}

// Live returns the absolute slot of the newest frame seen, or -1
// before any frame has arrived.
func (f *Feed) Live() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.highAll - 1
}

// Offer slots one frame into the feed: its encoding, filed as Consume
// files it. Payload bytes are copied, so the caller may reuse its
// buffer; a frame that does not encode to a valid one is garbage.
func (f *Feed) Offer(fr wire.NetFrame) {
	// A frame of a packet's size is encoded on the stack.
	b, err := wire.AppendNetFrame(make([]byte, 0, 256), fr)
	if err == nil {
		var v wire.NetFrameView
		if v, err = wire.ParseNetFrame(b); err == nil {
			f.mu.Lock()
			took := f.slot(v)
			if took && f.met != nil {
				f.met.Frames.Inc()
			}
			f.unlockAndWake(took)
			return
		}
	}
	if f.met != nil {
		f.met.Garbage.Inc()
	}
}

// Consume parses as many complete frames as buf holds, slotting each
// under one hold of the lock, and returns the number of bytes consumed.
// A short tail is not an error — the caller carries it into the next
// read. A malformed frame is: the stream has desynced and the transport
// must reconnect.
func (f *Feed) Consume(buf []byte) (int, error) {
	f.mu.Lock()
	at, slotted, err := f.file(buf)
	if f.met != nil {
		f.met.Frames.Add(int64(slotted))
	}
	f.unlockAndWake(slotted > 0)
	return at, err
}

// ConsumeDatagrams files a read's datagrams under one hold of the lock
// and wakes the readers once: buf is a run of seg-byte datagrams, the
// last of which may be shorter, or (seg <= 0) one datagram. Each
// datagram is parsed on its own, so a malformed one is discarded alone
// (counted as garbage) and the rest of the run still lands.
func (f *Feed) ConsumeDatagrams(buf []byte, seg int) {
	if seg <= 0 {
		seg = len(buf)
	}
	f.mu.Lock()
	slotted := 0
	for len(buf) > 0 {
		d := buf[:min(seg, len(buf))]
		_, n, _ := f.file(d) // a malformed datagram is garbage, counted by file
		slotted += n
		buf = buf[len(d):]
	}
	if f.met != nil {
		f.met.Frames.Add(int64(slotted))
	}
	f.unlockAndWake(slotted > 0)
}

// file slots the complete frames buf holds, under f.mu, and returns the
// bytes parsed and the frames slotted. It stops at a short tail, or at
// a malformed frame, which is counted as garbage and returned.
func (f *Feed) file(buf []byte) (at, slotted int, err error) {
	for at < len(buf) {
		v, perr := wire.ParseNetFrame(buf[at:])
		if perr != nil {
			if perr != wire.ErrShortFrame {
				if f.met != nil {
					f.met.Garbage.Inc()
				}
				err = perr
			}
			break
		}
		if f.slot(v) {
			slotted++
		}
		at += len(v)
	}
	return at, slotted, err
}

// slot files one frame under f.mu, straight from its bytes, and reports
// whether the feed took it: a data frame for a channel the broadcast does
// not have, or wider than any packet on air, is garbage, and a closed
// lossless feed takes nothing.
func (f *Feed) slot(v wire.NetFrameView) bool {
	switch v.Kind() {
	case wire.NetDir:
		if ver := v.Ver(); ver >= f.dirVer {
			f.dir = adopt(f.dir, v.Payload())
			f.dirVer = ver
		}
	case wire.NetFECDesc:
		if ver := v.Ver(); ver >= f.descVer {
			f.desc = adopt(f.desc, v.Payload())
			f.descVer = ver
		}
	case wire.NetData:
		ch, abs, payload := int(v.Ch()), v.Abs(), v.Payload()
		if ch >= f.nch || len(payload) > f.maxPayload {
			if f.met != nil {
				f.met.Garbage.Inc()
			}
			return false
		}
		if f.opt.Lossless {
			if f.lastConsumed < 0 {
				f.lastConsumed = abs
			}
			for !f.closed && abs >= f.lastConsumed+f.ring {
				// The reader that will make room may be waiting on a
				// frame slotted earlier under this same hold of the lock.
				f.wake()
				f.cond.Wait()
			}
			if f.closed {
				return false
			}
		}
		if recHeader+len(payload) > f.stride {
			f.widen(len(payload))
		}
		pg, at := f.place(ch, abs)
		if *pg == nil {
			*pg = make([]byte, f.stride<<f.pageShift)
		}
		r := (*pg)[at : at+f.stride]
		if int64(binary.LittleEndian.Uint64(r[recAbs:])) <= abs { // newer than the record's frame
			binary.LittleEndian.PutUint64(r[recAbs:], uint64(abs+1))
			binary.LittleEndian.PutUint32(r[recSlot:], v.Slot())
			binary.LittleEndian.PutUint32(r[recVer:], v.Ver())
			binary.LittleEndian.PutUint16(r[recLen:], uint16(len(payload)))
			r[recFlags] = v.Flags()
			copy(r[recHeader:], payload)
		}
		if abs+1 > f.high[ch] {
			f.high[ch] = abs + 1
		}
		if abs+1 > f.highAll {
			f.highAll = abs + 1
		}
	}
	return true
}

// adopt returns the held control payload, or a copy of p when p differs
// from it: a control frame repeating what the feed holds copies nothing.
func adopt(held, p []byte) []byte {
	if bytes.Equal(held, p) {
		return held
	}
	return append([]byte(nil), p...)
}

// widen re-lays every page out in records wide enough for an n-byte
// payload. The width only grows and never past maxPayload, and a
// broadcast's packets come in a few widths, so a feed widens a few
// times at most.
func (f *Feed) widen(n int) {
	stride := recHeader + n
	for p, old := range f.pages {
		if old == nil {
			continue
		}
		pg := make([]byte, stride<<f.pageShift)
		for r := 0; r < 1<<f.pageShift; r++ {
			copy(pg[r*stride:], old[r*f.stride:(r+1)*f.stride])
		}
		f.pages[p] = pg
	}
	f.stride = stride
}

// place returns the page holding channel ch's record for abs, nil while
// no frame has landed in it, and the record's offset in the page.
func (f *Feed) place(ch int, abs int64) (*[]byte, int) {
	g := int64(ch)*f.ring + abs&(f.ring-1)
	return &f.pages[g>>f.pageShift], int(g&(1<<f.pageShift-1)) * f.stride
}

// wakeAll wakes every waiter; those that go back to waiting register
// the slot they wait on again.
func (f *Feed) wakeAll() {
	f.awaited = noWaiter
	f.cond.Broadcast()
}

// wake wakes the blocked readers once the clock has reached the earliest
// slot any of them waits on, and reports whether it did.
func (f *Feed) wake() bool {
	if f.highAll <= f.awaited {
		return false
	}
	f.wakeAll()
	return true
}

// arm makes the timer fire by deadline, under f.mu.
func (f *Feed) arm(deadline time.Time) {
	if !f.armed.IsZero() && !deadline.Before(f.armed) {
		return
	}
	f.armed = deadline
	if f.timer == nil {
		f.timer, f.stop = time.NewTimer(time.Until(deadline)), make(chan struct{})
		f.expiring.Add(1)
		go f.expire(f.timer.C, f.stop)
		return
	}
	f.timer.Reset(time.Until(deadline))
}

// expire serves the timer until the feed closes: each firing wakes every
// reader to check its deadline.
func (f *Feed) expire(fired <-chan time.Time, stop <-chan struct{}) {
	defer f.expiring.Done()
	for {
		select {
		case <-fired:
			f.mu.Lock()
			f.armed = time.Time{}
			f.wakeAll()
			f.mu.Unlock()
		case <-stop:
			return
		}
	}
}

// unlockAndWake ends a transport's hold of the lock, waking the readers
// its frames (if it slotted any) may have served. After a wake-up that
// woke someone it yields: a stream that never runs dry never blocks,
// and the woken reader would otherwise sit in this P's runnext slot
// until sysmon preempts the stream, some 10 ms later.
func (f *Feed) unlockAndWake(slotted bool) {
	woke := slotted && f.wake()
	f.mu.Unlock()
	if woke {
		runtime.Gosched()
	}
}

// PacketAt implements station.PacketSource: the run of one into no
// buffer.
func (f *Feed) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	var p [1]station.Packet
	f.ReadRunAt(p[:], nil, ch, abs)
	return p[0], p[0].Ver
}

// ReadRunAt implements station.PacketSource: the frames broadcast on
// channel ch at absolute slots abs, abs+1, …, copied into buf one after
// another under one hold of the lock. Each slot is served in turn
// exactly as a read of it alone would be — waiting for it while it is
// still in flight, with a deadline of its own — and a lost slot is the
// zero packet (Ver 0), which the decoding layer counts as channel loss.
func (f *Feed) ReadRunAt(dst []station.Packet, buf []byte, ch int, abs int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch < 0 || ch >= f.nch {
		clear(dst)
		return
	}
	dst, abs = station.LostBeforeZero(dst, abs)
	b := buf[:0]
	for i := range dst {
		dst[i], b = f.serve(b, len(dst)-1-i, ch, abs+int64(i))
	}
}

// serve is one slot of a run, under f.mu: the frame at abs, its payload
// appended to b — in b's capacity, else in a fresh allocation with room
// for the more slots of the run still to come.
func (f *Feed) serve(b []byte, more, ch int, abs int64) (station.Packet, []byte) {
	// The watermark follows the slots as they are served: advanced to the
	// run's end at once, it would let a lossless transport overwrite the
	// run's own head, which shares a record with abs+ring.
	if abs > f.lastConsumed {
		f.lastConsumed = abs
		if f.opt.Lossless {
			f.wakeAll() // a transport may be waiting for ring space
		}
	}
	// The read's deadline is set by its first wait: a slot the ring
	// serves at once reads no clock.
	var deadline time.Time
	for {
		var r []byte
		var held int64 // abs+1 of the frame the record holds, 0 for none
		if pg, at := f.place(ch, abs); *pg != nil {
			r = (*pg)[at : at+f.stride]
			held = int64(binary.LittleEndian.Uint64(r[recAbs:]))
		}
		if held == abs+1 {
			// The ring keeps its record; the reader gets the bytes in its own.
			n := int(binary.LittleEndian.Uint16(r[recLen:]))
			if cap(b)-len(b) < n {
				b = make([]byte, 0, n+more*(f.stride-recHeader))
			}
			at := len(b)
			b = append(b, r[recHeader:recHeader+n]...)
			return station.Packet{
				Ch:      uint8(ch),
				Slot:    binary.LittleEndian.Uint32(r[recSlot:]),
				Flags:   r[recFlags],
				Ver:     binary.LittleEndian.Uint32(r[recVer:]),
				Payload: b[at:len(b):len(b)],
			}, b
		}
		lost := f.closed ||
			held > abs+1 // evicted: the window moved past
		if !lost && !f.opt.Lossless {
			lost = f.high[ch] > abs+reorderSlack ||
				f.highAll > abs+f.opt.LagSlack
			if !lost {
				if now := time.Now(); deadline.IsZero() {
					deadline = now.Add(f.opt.WaitTimeout)
				} else {
					lost = !now.Before(deadline) // timed out
				}
			}
		}
		if lost {
			f.lost++
			if f.met != nil {
				f.met.LostSlots.Inc()
			}
			return station.Packet{}, b
		}
		if !f.opt.Lossless {
			f.arm(deadline)
		}
		if abs < f.awaited {
			f.awaited = abs
		}
		f.cond.Wait()
	}
}

// DirectoryAt implements station.PacketSource: the newest in-band
// directory, nil with version 0 before one has arrived.
func (f *Feed) DirectoryAt(int64) ([]byte, uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dir, f.dirVer
}

// FECDescAt implements station.PacketSource: the newest in-band FEC
// descriptor, nil with version 0 before one has arrived.
func (f *Feed) FECDescAt(int64) ([]byte, uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.desc, f.descVer
}

// WaitLive blocks until at least one data frame has arrived and
// returns its absolute slot, or false on timeout / close.
func (f *Feed) WaitLive(timeout time.Duration) (int64, bool) {
	return f.waitFor(timeout, func() bool { return f.highAll > 0 })
}

// WaitFEC blocks until an FEC descriptor control frame has arrived and
// returns the live slot, or false on timeout / close.
func (f *Feed) WaitFEC(timeout time.Duration) (int64, bool) {
	return f.waitFor(timeout, func() bool { return f.desc != nil })
}

func (f *Feed) waitFor(timeout time.Duration, ready func() bool) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for !ready() {
		if f.closed || !time.Now().Before(deadline) {
			return 0, false
		}
		f.arm(deadline)
		f.awaited = -1 // any frame may be the one: below every clock
		f.cond.Wait()
	}
	return f.highAll - 1, true
}
