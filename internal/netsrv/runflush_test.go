// Flushes built from channel runs: byte-identical to frames encoded one
// slot at a time, one read per channel per flush, and a payload no frame
// can carry sent as a lost slot instead of stopping the clock.

package netsrv

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/sched"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// slotByFlush is the flush the slots [abs, abs+n) make when every frame
// is read and encoded on its own: each slot's control frames at the
// cadence, then every channel's packet through PacketAt and
// AppendNetFrame.
func slotByFlush(t *testing.T, src station.PacketSource, nch, ctrl int, abs int64, n int) []byte {
	t.Helper()
	var buf []byte
	add := func(f wire.NetFrame) {
		var err error
		if buf, err = wire.AppendNetFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for a := abs; a < abs+int64(n); a++ {
		if a%int64(ctrl) == 0 {
			if desc, ver := src.FECDescAt(a); desc != nil {
				add(wire.NetFrame{Kind: wire.NetFECDesc, Ver: ver, Abs: a, Payload: desc})
			}
			if dir, ver := src.DirectoryAt(a); dir != nil {
				add(wire.NetFrame{Kind: wire.NetDir, Ver: ver, Abs: a, Payload: dir})
			}
		}
		for ch := 0; ch < nch; ch++ {
			p, ver := src.PacketAt(ch, a)
			add(wire.NetFrame{
				Kind: wire.NetData, Flags: p.Flags, Ch: uint16(ch),
				Slot: p.Slot, Ver: ver, Abs: a, Payload: p.Payload,
			})
		}
	}
	return buf
}

// checkFlush fails unless the flush is the slot-by-slot one, and its
// frame index cuts its bytes where the frames end.
func checkFlush(t *testing.T, srv *Server, fl *flush, abs int64) {
	t.Helper()
	want := slotByFlush(t, srv.src, srv.nch, srv.ctrl, abs, fl.slots)
	if !bytes.Equal(fl.buf, want) {
		at := 0
		for at < min(len(fl.buf), len(want)) && fl.buf[at] == want[at] {
			at++
		}
		t.Fatalf("flush at slot %d (%d slots): %d bytes, slot by slot %d; first difference at byte %d",
			abs, fl.slots, len(fl.buf), len(want), at)
	}
	from := 0
	for i, ref := range fl.frames {
		v, err := wire.ParseNetFrame(fl.buf[from:ref.end])
		if err != nil || len(v) != ref.end-from || v.Abs() != ref.abs ||
			(ref.ch >= 0) != (v.Kind() == wire.NetData) || (ref.ch >= 0 && int(v.Ch()) != ref.ch) {
			t.Fatalf("flush at slot %d: frame %d indexed as %+v does not match its bytes (%v)", abs, i, ref, err)
		}
		from = ref.end
	}
	if from != len(fl.buf) {
		t.Fatalf("flush at slot %d: the index covers %d of %d bytes", abs, from, len(fl.buf))
	}
}

// flushRates are station rates whose flushes are 256 (flat out), 100 and
// 4 096 slots wide.
var flushRates = []struct{ rate, batch int }{{0, 256}, {20000, 100}, {1 << 20, 4096}}

// shardLayouts builds a four-channel shard layout of 64-byte packets
// and, for a re-cut, the same index under other shard bounds.
func shardLayouts(t *testing.T, n, objBytes int) (*dsi.Layout, *dsi.Layout) {
	t.Helper()
	ds := dataset.Uniform(n, 8, 1)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: objBytes, Segments: 1, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Uniform(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := plan.Layout(2)
	if err != nil {
		t.Fatal(err)
	}
	recut, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 5, x.NF / 2, x.NF},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lay, recut
}

// TestRunFlushMatchesSlotBySlot: every flush built from one run per
// channel is byte for byte the flush of frames read and encoded one slot
// at a time — over the net_flood image, over a transmitter whose Tick
// stages a re-cut directory at abs+1 so that its seams fall inside
// flushes, and over a coded transmitter of the wire_lossy shape — at
// flushes of 256, 100 and 4 096 slots.
func TestRunFlushMatchesSlotBySlot(t *testing.T) {
	img := floodImage(t)
	defer img.Close()
	lay, recut := shardLayouts(t, 100, 0)
	codedLay, _ := shardLayouts(t, 300, 1024)
	code := wire.FECConfig{Table: wire.FECCode{Groups: 1, Parity: 2}, Object: wire.FECCode{Groups: 4, Parity: 2}}

	for _, fr := range flushRates {
		t.Run("image", func(t *testing.T) {
			srv, err := New(Config{Source: img, Meta: img.Meta(), SlotsPerSec: fr.rate, CtrlEvery: 256})
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				abs := srv.Now()
				fl := srv.buildFlush(srv.batch)
				checkFlush(t, srv, fl, abs)
				srv.release(fl)
			}
		})

		t.Run("swapping transmitter", func(t *testing.T) {
			tx, err := station.NewMultiTransmitter(lay)
			if err != nil {
				t.Fatal(err)
			}
			// The swap demo's hook: commit what has crossed its seams, and
			// once nothing is in flight stage the other cut at abs+1.
			cuts, swaps := []*dsi.Layout{recut, lay}, 0
			tick := func(abs int64) {
				tx.Commit(abs)
				if _, staged := tx.SeamOf(0); !staged {
					if _, err := tx.Stage(cuts[swaps%2], abs+1); err != nil {
						t.Fatal(err)
					}
					swaps++
				}
			}
			srv, err := New(Config{Source: tx, Layout: lay, SlotsPerSec: fr.rate, CtrlEvery: 64, Tick: tick})
			if err != nil {
				t.Fatal(err)
			}
			inside := 0
			for flushes := 0; swaps < 3 && flushes < 100; flushes++ {
				abs := srv.Now()
				srv.cfg.Tick(abs) // as Run does, before the flush is read
				for ch := 0; ch < srv.nch; ch++ {
					if seam, ok := tx.SeamOf(ch); ok && seam > abs && seam < abs+int64(fr.batch) {
						inside++
					}
				}
				fl := srv.buildFlush(srv.batch)
				checkFlush(t, srv, fl, abs)
				srv.release(fl)
			}
			if inside == 0 || swaps < 3 {
				t.Fatalf("%d swaps staged and %d channel seams inside a flush: the swap was never read across", swaps, inside)
			}
		})

		t.Run("coded transmitter", func(t *testing.T) {
			tx, err := station.NewMultiTransmitterFEC(codedLay, code)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Source: tx, Layout: codedLay, SlotsPerSec: fr.rate, CtrlEvery: 256})
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				abs := srv.Now()
				fl := srv.buildFlush(srv.batch)
				checkFlush(t, srv, fl, abs)
				srv.release(fl)
			}
		})
	}
}

// countingSource counts the reads a server makes of its source.
type countingSource struct {
	station.PacketSource
	runs    []int // per channel
	packets int
}

func (c *countingSource) ReadRunAt(dst []station.Packet, buf []byte, ch int, abs int64) {
	c.runs[ch]++
	c.PacketSource.ReadRunAt(dst, buf, ch, abs)
}

func (c *countingSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	c.packets++
	return c.PacketSource.PacketAt(ch, abs)
}

// TestFlushReadsOneRunPerChannel: a flush reads each channel once, as a
// run of the flush's slots, and no single packet.
func TestFlushReadsOneRunPerChannel(t *testing.T) {
	tx, lay := newTestSource(t)
	src := &countingSource{PacketSource: tx, runs: make([]int, lay.Channels())}
	for _, fr := range flushRates {
		srv, err := New(Config{Source: src, Layout: lay, SlotsPerSec: fr.rate, CtrlEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		for flushes := 1; flushes <= 3; flushes++ {
			clear(src.runs)
			srv.release(srv.buildFlush(srv.batch))
			for ch, n := range src.runs {
				if n != 1 {
					t.Fatalf("%d-slot flush %d: %d reads of channel %d, want 1", fr.batch, flushes, n, ch)
				}
			}
		}
	}
	if src.packets != 0 {
		t.Fatalf("the server read %d single packets", src.packets)
	}
}

// wideSource is a stamp source whose one slot of one channel carries a
// payload wider than a net frame's length field.
type wideSource struct {
	*stampSource
	ch  int
	abs int64
}

func (w *wideSource) ReadRunAt(dst []station.Packet, buf []byte, ch int, abs int64) {
	w.stampSource.ReadRunAt(dst, buf, ch, abs)
	if i := w.abs - abs; ch == w.ch && i >= 0 && i < int64(len(dst)) {
		dst[i].Payload = make([]byte, 70_000)
	}
}

func (w *wideSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	var p [1]station.Packet
	w.ReadRunAt(p[:], nil, ch, abs)
	return p[0], p[0].Ver
}

// TestOversizedPayloadIsALostSlot: a 70 000-byte payload cannot be
// framed. The station sends the zero packet at its slot (Ver 0, no
// payload), counts it and keeps its clock running, and a lossless feed
// fed from the stream serves that slot as lost and its neighbours whole.
func TestOversizedPayloadIsALostSlot(t *testing.T) {
	const nch, size, wideCh, wideAbs = 3, 64, 1, 300
	src := &wideSource{stampSource: newStampSource(nch, size, true), ch: wideCh, abs: wideAbs}

	t.Run("flush", func(t *testing.T) {
		srv, err := New(Config{Source: src, CtrlEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		srv.release(srv.buildFlush(wideAbs - 10))
		fl := srv.buildFlush(20)
		found := false
		for _, f := range decodeAll(t, fl.buf) {
			if f.Kind != wire.NetData {
				continue
			}
			if f.Abs == wideAbs && f.Ch == wideCh {
				found = true
				if f.Ver != 0 || f.Flags != 0 || f.Slot != 0 || len(f.Payload) != 0 {
					t.Fatalf("the oversized slot went out as %+v, want the zero packet", f)
				}
			} else if err := checkFrame(f, size); err != nil {
				t.Fatal(err)
			}
		}
		if !found {
			t.Fatal("no frame at the oversized slot")
		}
	})

	t.Run("stream", func(t *testing.T) {
		reg := obs.NewRegistry()
		srv, err := New(Config{Source: src, CtrlEvery: 64, Block: true, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			_ = srv.Run(ctx)
		}()
		defer func() { cancel(); <-ran }()

		feed := netrecv.NewFeed(nch, netrecv.Options{Lossless: true}, nil)
		defer feed.Close()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		go func() {
			buf := make([]byte, 0, 64<<10)
			for {
				n, err := resp.Body.Read(buf[len(buf):cap(buf)])
				buf = buf[:len(buf)+n]
				used, cerr := feed.Consume(buf)
				buf = buf[:copy(buf, buf[used:])]
				if err != nil || cerr != nil {
					return
				}
			}
		}()

		for abs := int64(0); abs < wideAbs+600; abs++ {
			for ch := 0; ch < nch; ch++ {
				p, ver := feed.PacketAt(ch, abs)
				switch {
				case abs == wideAbs && ch == wideCh:
					if ver != 0 || len(p.Payload) != 0 {
						t.Fatalf("the feed served the oversized slot as v%d with %d bytes, want a lost slot", ver, len(p.Payload))
					}
				case ver != 1:
					t.Fatalf("channel %d slot %d served as v%d", ch, abs, ver)
				default:
					if err := checkFrame(wire.NetFrame{Ch: uint16(ch), Abs: abs, Payload: p.Payload}, size); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if now := srv.Now(); now < wideAbs+600 {
			t.Fatalf("the clock stands at %d", now)
		}
		if n := obs.NewNetStationMetrics(reg, "http", nch).Oversized.Value(); n != 1 {
			t.Fatalf("station_net_oversized_payloads_total = %d, want 1", n)
		}
	})
}

// TestStreamIsOneSendPerFlush: /v1/stream is a bare body — no transfer
// coding — and a flat-out subscriber to every channel gets one
// connection write per flush after the one that carries the headers.
func TestStreamIsOneSendPerFlush(t *testing.T) {
	const nch, size = 4, 64
	reg := obs.NewRegistry()
	srv, err := New(Config{Source: newStampSource(nch, size, true), CtrlEvery: 256, Block: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener = &countingListener{Listener: hs.Listener, writes: &writes}
	hs.Start()
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		_ = srv.Run(ctx)
	}()

	resp, err := http.Get(hs.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 || resp.Header.Get("Transfer-Encoding") != "" {
		t.Fatalf("the stream has transfer coding %q", resp.TransferEncoding)
	}
	const want = 40 * flatOutSlots * nch
	frames := readFrames(t, resp.Body, want)
	if len(frames) < want {
		t.Fatalf("%d data frames before the deadline, want %d", len(frames), want)
	}
	for _, f := range frames {
		if err := checkFrame(f, size); err != nil {
			t.Fatal(err)
		}
	}
	// Stop the station and hang up, then compare what was written with
	// the flushes the writer completed: each books its frames once
	// written, and a write under way when the subscriber hung up is
	// counted without being booked.
	cancel()
	<-ran
	resp.Body.Close()
	hs.Close()
	flushes := obs.NewNetStationMetrics(reg, "http", nch).Frames.Value() / (flatOutSlots * nch)
	if w := writes.Load(); flushes < 40 || w > flushes+2 {
		t.Fatalf("%d connection writes for %d flushes, want at most one a flush and one for the headers", w, flushes)
	}
}

// countingListener counts the writes of every connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}
