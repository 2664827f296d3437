// The flush: air order on every transport, one slot per datagram, and
// storage that comes back — without ever being rewritten under a
// subscriber that still reads it.

package netsrv

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// stampSource serves a payload that is a function of (ch, abs) alone,
// built into the reader's buffer as the PacketSource contract has it:
// every byte of a frame can be checked against its own position stamp.
type stampSource struct {
	nch, size int
	dir       []byte
	desc      []byte
}

// newStampSource serves nch channels of size-byte payloads, with
// control frames on air when ctrl is set.
func newStampSource(nch, size int, ctrl bool) *stampSource {
	s := &stampSource{nch: nch, size: size}
	if ctrl {
		s.dir, s.desc = []byte("directory"), []byte("descriptor")
	}
	return s
}

func stamp(dst []byte, ch int, abs int64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.BigEndian.PutUint64(dst[i:], uint64(abs)*31+uint64(ch)*7+uint64(i))
	}
}

func (s *stampSource) Channels() int { return s.nch }

func (s *stampSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	var p [1]station.Packet
	s.ReadRunAt(p[:], nil, ch, abs)
	return p[0], p[0].Ver
}

// ReadRunAt stamps each slot's payload into buf's capacity, one after
// another, and when that runs short into one fresh allocation sized for
// the rest of the run.
func (s *stampSource) ReadRunAt(dst []station.Packet, buf []byte, ch int, abs int64) {
	b := buf[:0]
	for i := range dst {
		if cap(b)-len(b) < s.size {
			b = make([]byte, 0, (len(dst)-i)*s.size)
		}
		at := len(b)
		b = b[:at+s.size]
		p := b[at:len(b):len(b)]
		stamp(p, ch, abs+int64(i))
		dst[i] = station.Packet{Ch: uint8(ch), Slot: uint32((abs + int64(i)) % 1000), Ver: 1, Payload: p}
	}
}

func (s *stampSource) DirectoryAt(int64) ([]byte, uint32) { return s.dir, 1 }
func (s *stampSource) FECDescAt(int64) ([]byte, uint32)   { return s.desc, 1 }

// checkFrame fails unless a data frame carries exactly the bytes the
// stamp source serves at the frame's own position.
func checkFrame(f wire.NetFrame, size int) error {
	want := make([]byte, size)
	stamp(want, int(f.Ch), f.Abs)
	if !bytes.Equal(f.Payload, want) {
		return fmt.Errorf("channel %d slot %d: payload is not the source's", f.Ch, f.Abs)
	}
	return nil
}

// decodeAll splits a datagram (or any whole-frame buffer) into frames.
func decodeAll(t *testing.T, p []byte) []wire.NetFrame {
	t.Helper()
	var out []wire.NetFrame
	for len(p) > 0 {
		f, n, err := wire.DecodeNetFrame(p)
		if err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		out = append(out, f)
		p = p[n:]
	}
	return out
}

// TestFlushDatagramCutting pins the one rule that cuts a flush into
// datagrams: a subscription's frames of one slot, control frames first,
// gathered when they lie apart and split only past the budget.
func TestFlushDatagramCutting(t *testing.T) {
	kinds := func(t *testing.T, p []byte) string {
		var b bytes.Buffer
		for _, f := range decodeAll(t, p) {
			if f.Kind == wire.NetData {
				fmt.Fprintf(&b, "%d@%d ", f.Ch, f.Abs)
			} else {
				fmt.Fprintf(&b, "c@%d ", f.Abs)
			}
		}
		return b.String()
	}
	cut := func(t *testing.T, fl *flush, set chanSet) []string {
		var out []string
		var p, scratch []byte
		for i := 0; ; {
			if p, i, scratch = fl.datagram(set, i, scratch); p == nil {
				return out
			}
			if len(decodeAll(t, p)) > 1 && len(p) > dgramBudget {
				t.Fatalf("datagram of %d bytes exceeds the budget", len(p))
			}
			out = append(out, kinds(t, p))
		}
	}

	t.Run("slot per datagram", func(t *testing.T) {
		srv, err := New(Config{Source: newStampSource(3, 64, true), CtrlEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		fl := srv.buildFlush(3) // slots 0 (with control frames), 1, 2 (with control frames)
		for _, tc := range []struct {
			name string
			set  chanSet
			want []string
		}{
			{"every channel", nil, []string{"c@0 c@0 0@0 1@0 2@0 ", "0@1 1@1 2@1 ", "c@2 c@2 0@2 1@2 2@2 "}},
			{"channel 0 (adjacent to control)", only(3, 0), []string{"c@0 c@0 0@0 ", "0@1 ", "c@2 c@2 0@2 "}},
			{"channel 2 (gathered)", only(3, 2), []string{"c@0 c@0 2@0 ", "2@1 ", "c@2 c@2 2@2 "}},
			{"channels 0 and 2", chanSet{true, false, true}, []string{"c@0 c@0 0@0 2@0 ", "0@1 2@1 ", "c@2 c@2 0@2 2@2 "}},
		} {
			if got := cut(t, fl, tc.set); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s: datagrams %q, want %q", tc.name, got, tc.want)
			}
		}
	})

	t.Run("split past the budget", func(t *testing.T) {
		// 4 × (24 + 600) bytes do not fit 1400: two frames per datagram.
		srv, err := New(Config{Source: newStampSource(4, 600, false)})
		if err != nil {
			t.Fatal(err)
		}
		fl := srv.buildFlush(2)
		want := []string{"0@0 1@0 ", "2@0 3@0 ", "0@1 1@1 ", "2@1 3@1 "}
		if got := cut(t, fl, nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("datagrams %q, want %q", got, want)
		}
	})

	t.Run("oversized frame travels alone", func(t *testing.T) {
		srv, err := New(Config{Source: newStampSource(2, 2000, false)})
		if err != nil {
			t.Fatal(err)
		}
		fl := srv.buildFlush(1)
		want := []string{"0@0 ", "1@0 "}
		if got := cut(t, fl, nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("datagrams %q, want %q", got, want)
		}
	})
}

// listenUDP opens a loopback datagram socket for the test's lifetime.
func listenUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// joinUDP subscribes a raw socket to the station's datagram port.
func joinUDP(t *testing.T, addr string, ch int) *net.UDPConn {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetReadBuffer(4 << 20)
	if _, err := fmt.Fprintf(conn, "DSIJOIN %d", ch); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestDatagramsCarryOneSlotInAirOrder listens on a raw socket to a paced
// station whose flush (100 slots) spans many slots: every datagram's
// data frames share one absolute slot, at most one per channel; the
// clock never steps backwards from one datagram to the next; no
// datagram exceeds the budget; and a single-channel subscription is
// that channel alone, one data frame per datagram. (Emitting a flush
// channel by channel, one frame per datagram, steps the clock back by
// up to a flush at every channel change.)
func TestDatagramsCarryOneSlotInAirOrder(t *testing.T) {
	const nch, budget = 3, 1400
	reg := obs.NewRegistry()
	srv, err := New(Config{Source: newStampSource(nch, 64, true), SlotsPerSec: 20000, CtrlEvery: 256, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Run(ctx) }()

	listen := func(t *testing.T, join int, datagrams int) {
		conn := joinUDP(t, addr, join)
		buf := make([]byte, 64<<10)
		last := int64(-1)
		data := 0
		for d := 0; d < datagrams; d++ {
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("after %d datagrams: %v", d, err)
			}
			if n > budget {
				t.Fatalf("datagram of %d bytes exceeds the %d-byte budget", n, budget)
			}
			seen := make(map[uint16]bool)
			abs := int64(-1)
			for _, f := range decodeAll(t, buf[:n]) {
				if abs >= 0 && f.Abs != abs {
					t.Fatalf("one datagram carries slots %d and %d", abs, f.Abs)
				}
				abs = f.Abs
				if f.Kind != wire.NetData {
					continue
				}
				// (The greeting — control frames alone, sent by the
				// subscribe path — is outside the air order.)
				if f.Abs < last {
					t.Fatalf("clock stepped backwards: slot %d after slot %d", f.Abs, last)
				}
				last = f.Abs
				if seen[f.Ch] {
					t.Fatalf("slot %d: channel %d twice in one datagram", f.Abs, f.Ch)
				}
				seen[f.Ch] = true
				if join >= 0 && int(f.Ch) != join {
					t.Fatalf("DSIJOIN %d delivered channel %d", join, f.Ch)
				}
				if err := checkFrame(f, 64); err != nil {
					t.Fatal(err)
				}
				data++
			}
			if want := map[bool]int{true: nch, false: 1}[join < 0]; len(seen) != 0 && len(seen) != want {
				t.Fatalf("slot %d: %d data frames in the datagram, want %d", abs, len(seen), want)
			}
		}
		if data == 0 {
			t.Fatal("no data frame heard")
		}
	}
	t.Run("every channel", func(t *testing.T) { listen(t, -1, 2000) })
	t.Run("DSIJOIN 2", func(t *testing.T) { listen(t, 2, 2000) })

	// What the station counted: a datagram per slot, so fewer datagrams
	// than frames on the all-channel subscription.
	m := obs.NewNetStationMetrics(reg, "udp", nch)
	if d, f := m.Datagrams.Value(), m.Frames.Value()+m.CtrlFrames.Value(); d == 0 || d >= f {
		t.Fatalf("station_net_datagrams_total = %d against %d frames", d, f)
	}
}

// TestWarmFlushAllocatesNothing: building a flush on recycled storage —
// every payload built by a real transmitter into the server's one packet
// buffer — publishing it to an HTTP and a UDP subscriber and emitting it
// to both, the datagrams in segmented writes where the kernel offers
// them, allocates nothing once warm.
func TestWarmFlushAllocatesNothing(t *testing.T) {
	src, lay := newTestSource(t)
	srv, err := New(Config{Source: src, Layout: lay, CtrlEvery: 256, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sink := listenUDP(t)
	// The emitter without its goroutines: the test plays both writers.
	u := newUDPEmitter(srv, listenUDP(t))
	srv.udpMet = obs.NewNetStationMetrics(srv.cfg.Registry, "udp", srv.nch)
	srv.udp = u
	u.join(sink.LocalAddr().(*net.UDPAddr).AddrPort(), -1)
	c, unsub := srv.subscribe(nil)
	defer unsub()
	srv.release(<-c.q) // the control snapshot

	ctx := context.Background()
	step := func() {
		srv.publish(ctx, srv.buildFlush(64))
		fl := <-c.q
		if err := fl.writeTo(io.Discard, c.chans); err != nil {
			t.Fatal(err)
		}
		fl.book(srv.httpMet, c.chans, 0, 0)
		srv.release(fl)
		u.emit(<-u.q)
	}
	// Warm: over a cycle of the longest channel the one flush's buffers
	// reach the size of the fullest batch.
	longest := 0
	for ch := 0; ch < lay.Channels(); ch++ {
		longest = max(longest, src.ChanSlots(ch))
	}
	for abs := 0; abs < longest; abs += 64 {
		step()
	}
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("a warm flush allocates %.0f times, want 0", n)
	}
	if m := srv.udpMet; u.segment && m.DatagramWrites.Value() >= m.Datagrams.Value() {
		t.Fatalf("%d datagrams in %d writes: the flushes were not segmented", m.Datagrams.Value(), m.DatagramWrites.Value())
	}
	if len(srv.free) != 1 {
		t.Fatalf("%d flushes on the free list, want the one that cycles", len(srv.free))
	}
}

// TestFlushStorageIsNeverRewrittenUnderAReader runs a flat-out,
// batch-dropping station against a fast subscriber, a slow one whose
// batches are dropped, a UDP subscriber, and subscribers that hang up
// with flushes queued. Everything anyone reads must still be the
// source's bytes at the frame's own stamp, in air order: a flush
// recycled while queued or half-written shows as a stale or torn frame
// (and, under -race, as a data race).
func TestFlushStorageIsNeverRewrittenUnderAReader(t *testing.T) {
	const nch, size = 4, 64
	reg := obs.NewRegistry()
	srv, err := New(Config{Source: newStampSource(nch, size, true), CtrlEvery: 64, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Run(ctx) }()

	// read checks frames off one HTTP subscription until n data frames
	// have passed or the deadline, pausing between reads, and lingers
	// without reading before it hangs up.
	read := func(query string, n int, pause, linger time.Duration) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/stream"+query, nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var carry []byte
		chunk := make([]byte, 8<<10)
		last := make([]int64, nch)
		frames := 0
		deadline := time.Now().Add(10 * time.Second)
		for frames < n && time.Now().Before(deadline) {
			c, err := resp.Body.Read(chunk)
			carry = append(carry, chunk[:c]...)
			for {
				f, used, derr := wire.DecodeNetFrame(carry)
				if derr == wire.ErrShortFrame {
					break
				}
				if derr != nil {
					return frames, fmt.Errorf("stream desynced after %d frames: %v", frames, derr)
				}
				carry = carry[used:]
				if f.Kind != wire.NetData {
					continue
				}
				if f.Abs < last[f.Ch] {
					return frames, fmt.Errorf("channel %d: slot %d after slot %d", f.Ch, f.Abs, last[f.Ch])
				}
				last[f.Ch] = f.Abs
				if err := checkFrame(f, size); err != nil {
					return frames, err
				}
				frames++
			}
			if err != nil {
				return frames, err
			}
			time.Sleep(pause)
		}
		time.Sleep(linger)
		return frames, nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	run := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	const want = 200_000
	run("fast subscriber", func() error {
		n, err := read("", want, 0, 0)
		if err == nil && n < want {
			err = fmt.Errorf("only %d frames before the deadline", n)
		}
		return err
	})
	run("slow subscriber", func() error {
		_, err := read("?ch=1,3", want/20, 2*time.Millisecond, 0)
		return err
	})
	run("subscribers that hang up", func() error {
		for i := 0; i < 20; i++ {
			// A few frames, a stall long enough to fill the socket and
			// then the queue, and the connection is dropped with
			// everything still queued.
			if _, err := read("", 50, 0, 40*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
	run("udp subscriber", func() error {
		conn := joinUDP(t, addr, -1)
		buf := make([]byte, 64<<10)
		for d := 0; d < 5000; d++ {
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				return err
			}
			for p := buf[:n]; len(p) > 0; {
				f, used, err := wire.DecodeNetFrame(p)
				if err != nil {
					return err
				}
				p = p[used:]
				if f.Kind == wire.NetData {
					if err := checkFrame(f, size); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if obs.NewNetStationMetrics(reg, "http", nch).Drops.Value() == 0 {
		t.Error("no batch was dropped: the lagging subscriber never lagged")
	}
}
