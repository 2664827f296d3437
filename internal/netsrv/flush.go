// The flush: what one turn of the pacer puts on air, laid out once in air
// order for every transport to write from, and recycled when the last of
// them is done with it.

package netsrv

import (
	"io"
	"slices"
	"sync/atomic"

	"dsi/internal/obs"
	"dsi/internal/wire"
)

// dgramBudget is the most bytes one datagram carries; a slot's frames
// are split over several datagrams only past it. It stays inside an
// Ethernet MTU less the IP and UDP headers, so a datagram is never
// fragmented on the usual path.
const dgramBudget = 1400

// chanSet is a subscription's channel mask; nil subscribes to every
// channel. Control frames (ch < 0) go to everyone.
type chanSet []bool

func (c chanSet) wants(ch int) bool { return ch < 0 || c == nil || c[ch] }

// only returns the subscription to channel ch alone, of nch.
func only(nch, ch int) chanSet {
	set := make(chanSet, nch)
	set[ch] = true
	return set
}

// frameRef locates one encoded frame in a flush's buffer: it starts
// where the previous frame ends.
type frameRef struct {
	end int   // offset one past the frame
	abs int64 // absolute slot of emission
	ch  int   // broadcast channel, -1 for a control frame
}

// flush is everything one pacer flush emitted, laid out in air order:
// slot by slot, the slot's control frames (if any) and then every
// channel's data frame — [ctrl…][ch0][ch1]… per slot. A subscription to
// every channel is therefore the buffer as it stands and one slot of it
// a contiguous sub-slice.
//
// A flush is shared read-only by every subscriber writer and reference
// counted: by the pacer while it publishes, by each subscriber queue
// that accepted it, and by the UDP sender. The last release hands its
// storage back to the server's free list.
type flush struct {
	buf    []byte
	frames []frameRef
	refs   atomic.Int32

	// What the flush holds, for the emission metrics: every slot has
	// one data frame per channel, and every subscription carries every
	// control frame.
	slots     int
	ctrl      int
	ctrlBytes int
	chBytes   []int
}

// start returns the offset frame i begins at.
func (fl *flush) start(i int) int {
	if i == 0 {
		return 0
	}
	return fl.frames[i-1].end
}

// add encodes one frame in place at the tail of the flush and indexes
// it under ch (-1 for a control frame). The frame is the server's own: a
// valid kind, a slot at or past 0 and a payload a frame carries.
func (fl *flush) add(f *wire.NetFrame, ch int) {
	at, n := len(fl.buf), wire.NetFrameHeader+len(f.Payload)
	fl.buf = slices.Grow(fl.buf, n)[:at+n]
	wire.PutNetFrame(fl.buf[at:], f)
	fl.frames = append(fl.frames, frameRef{end: at + n, abs: f.Abs, ch: ch})
	if ch < 0 {
		fl.ctrl++
		fl.ctrlBytes += n
	} else {
		fl.chBytes[ch] += n
	}
}

// writeTo writes a subscription's frames in air order, one Write per
// run of adjacent wanted frames — the whole flush at once for a
// subscription to every channel.
func (fl *flush) writeTo(w io.Writer, set chanSet) error {
	for i, n := 0, len(fl.frames); i < n; {
		if !set.wants(fl.frames[i].ch) {
			i++
			continue
		}
		from := fl.start(i)
		for i < n && set.wants(fl.frames[i].ch) {
			i++
		}
		if _, err := w.Write(fl.buf[from:fl.frames[i-1].end]); err != nil {
			return err
		}
	}
	return nil
}

// datagram cuts a subscription's next datagram out of the flush, from
// frame i on: its frames of one absolute slot, control frames first, up
// to dgramBudget bytes (a frame larger than the budget travels alone).
// Adjacent frames are a sub-slice of the flush; a channel subset whose
// frames lie apart is gathered into scratch. It returns the datagram
// (nil once no wanted frame is left), the first frame not taken, and
// scratch.
func (fl *flush) datagram(set chanSet, i int, scratch []byte) ([]byte, int, []byte) {
	n := len(fl.frames)
	for i < n && !set.wants(fl.frames[i].ch) {
		i++
	}
	if i == n {
		return nil, n, scratch
	}
	abs := fl.frames[i].abs
	from, end := fl.start(i), fl.frames[i].end // the datagram while its frames are adjacent
	size, gathered := end-from, false
	for i++; i < n && fl.frames[i].abs == abs; i++ {
		if !set.wants(fl.frames[i].ch) {
			continue
		}
		a, b := fl.start(i), fl.frames[i].end
		if size+b-a > dgramBudget {
			break
		}
		size += b - a
		switch {
		case gathered:
			scratch = append(scratch, fl.buf[a:b]...)
		case a == end:
			end = b
		default:
			scratch = append(append(scratch[:0], fl.buf[from:end]...), fl.buf[a:b]...)
			gathered = true
		}
	}
	if gathered {
		return scratch, i, scratch
	}
	return fl.buf[from:end], i, scratch
}

// book counts what a subscription to set was sent of the flush, in
// dgrams datagrams and the writes they went out in (both 0 on a stream
// transport).
func (fl *flush) book(m *obs.NetStationMetrics, set chanSet, dgrams, writes int) {
	if m == nil {
		return
	}
	m.CtrlFrames.Add(int64(fl.ctrl))
	frames, ctrlBytes := 0, fl.ctrlBytes // control bytes book to the subscription's first channel
	for ch, n := range fl.chBytes {
		if set.wants(ch) {
			m.BytesEmitted(ch, n+ctrlBytes)
			frames += fl.slots
			ctrlBytes = 0
		}
	}
	m.Frames.Add(int64(frames))
	m.Datagrams.Add(int64(dgrams))
	m.DatagramWrites.Add(int64(writes))
}

// newFlush returns an empty flush holding its caller's reference, on
// recycled storage when a released flush is waiting.
func (s *Server) newFlush() *flush {
	var fl *flush
	select {
	case fl = <-s.free:
		fl.buf, fl.frames = fl.buf[:0], fl.frames[:0]
		fl.slots, fl.ctrl, fl.ctrlBytes = 0, 0, 0
		clear(fl.chBytes)
	default:
		fl = &flush{chBytes: make([]int, s.nch)}
	}
	fl.refs.Store(1)
	return fl
}

// release drops one reference. The last one recycles the flush; past a
// full free list it is left to the collector.
func (s *Server) release(fl *flush) {
	if fl.refs.Add(-1) == 0 {
		select {
		case s.free <- fl:
		default:
		}
	}
}
