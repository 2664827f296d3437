// Coalesced reads: a GRO socket reads a run of datagrams at once, the
// feed files them as the datagrams they are, and neither costs an
// allocation.

package netrecv

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"dsi/internal/netsrv"
	"dsi/internal/station"
	"dsi/internal/wire"
)

const udpSegment = 103 // UDP_SEGMENT

// segmentingConn returns a socket connected to to whose kernel cuts a
// segmented write, skipping the test where it does not.
func segmentingConn(t *testing.T, to net.Addr) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, to.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var gerr error
	if err := rc.Control(func(fd uintptr) { _, gerr = syscall.GetsockoptInt(int(fd), solUDP, udpSegment) }); err != nil || gerr != nil {
		t.Skip("the kernel does not segment UDP sends")
	}
	return c
}

// segmentMsg is the control message of a write cut into seg-byte datagrams.
func segmentMsg(seg int) []byte {
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = solUDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	return oob
}

func groConn(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetReadBuffer(udpReadBuffer)
	enableGRO(c)
	return c
}

// TestGROReadAllocatesNothing: one coalesced read of 64 datagrams and
// filing them in the feed allocates nothing once warm.
func TestGROReadAllocatesNothing(t *testing.T) {
	const runs, segs, payload = 51, 64, 64
	rx := groConn(t)
	tx := segmentingConn(t, rx.LocalAddr())
	var run []byte
	for abs := range segs {
		var err error
		run, err = wire.AppendNetFrame(run, wire.NetFrame{Kind: wire.NetData, Ver: 1, Abs: int64(abs), Payload: make([]byte, payload)})
		if err != nil {
			t.Fatal(err)
		}
	}
	seg := len(run) / segs
	for range runs {
		if _, _, err := tx.WriteMsgUDP(run, segmentMsg(seg), nil); err != nil {
			t.Fatalf("segmented write: %v", err)
		}
	}

	feed := NewFeed(1, Options{RingSlots: 256}, nil)
	defer feed.Close()
	buf := make([]byte, wire.MaxNetPayload+wire.NetFrameHeader)
	oob := make([]byte, groOOBSize)
	var n, got int
	var err error
	read := func() {
		_ = rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, got, err = readDatagrams(rx, buf, oob); err == nil {
			feed.ConsumeDatagrams(buf[:n], got)
		}
	}
	allocs := testing.AllocsPerRun(runs-1, read)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(run) || got != seg {
		t.Fatalf("a read of %d bytes in %d-byte segments, want the run of %d in %d", n, got, len(run), seg)
	}
	if allocs != 0 {
		t.Fatalf("a coalesced read and its filing allocate %.0f times, want 0", allocs)
	}
	if p, _ := feed.PacketAt(0, segs-1); p.Ver != 1 {
		t.Fatal("the run's last datagram was not filed")
	}
}

// stampSrc serves nch channels of payloads that are a function of
// (ch, abs) alone, and a directory: a station source for transport tests.
type stampSrc struct{ nch, size int }

func (s stampSrc) Channels() int { return s.nch }

func (s stampSrc) ReadRunAt(dst []station.Packet, buf []byte, ch int, abs int64) {
	b := buf[:0]
	for i := range dst {
		if cap(b)-len(b) < s.size {
			b = make([]byte, 0, (len(dst)-i)*s.size)
		}
		at := len(b)
		b = b[:at+s.size]
		for k := at; k < len(b); k++ {
			b[k] = byte(int64(ch)*31 + (abs+int64(i))*7 + int64(k-at))
		}
		dst[i] = station.Packet{Ch: uint8(ch), Slot: uint32(abs + int64(i)), Ver: 1, Payload: b[at:len(b):len(b)]}
	}
}

func (s stampSrc) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	var p [1]station.Packet
	s.ReadRunAt(p[:], nil, ch, abs)
	return p[0], p[0].Ver
}

func (s stampSrc) DirectoryAt(int64) ([]byte, uint32) { return []byte("directory"), 1 }
func (s stampSrc) FECDescAt(int64) ([]byte, uint32)   { return nil, 0 }

// TestGROFeedServesWhatAPlainFeedServes subscribes a GRO socket and a
// plain one to the same paced station and files each into a feed of
// its own: over a stretch both heard, the feeds serve the same packets
// and directory, and the GRO socket read runs of datagrams.
func TestGROFeedServesWhatAPlainFeedServes(t *testing.T) {
	const nch, span = 3, 1500
	srv, err := netsrv.New(netsrv.Config{Source: stampSrc{nch, 64}, SlotsPerSec: 20000, CtrlEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	segmentingConn(t, raddr) // skips where the station cannot segment
	go func() { _ = srv.Run(ctx) }()

	var wg sync.WaitGroup
	runs := 0 // coalesced reads of the GRO socket
	subscribe := func(gro bool) (*Feed, *net.UDPConn) {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadBuffer(udpReadBuffer)
		if gro {
			enableGRO(c)
		}
		if _, err := fmt.Fprint(c, "DSIJOIN -1"); err != nil {
			t.Fatal(err)
		}
		feed := NewFeed(nch, Options{RingSlots: 4096}, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, wire.MaxNetPayload+wire.NetFrameHeader)
			oob := make([]byte, groOOBSize)
			for {
				var n, seg int
				var err error
				if gro {
					n, seg, err = readDatagrams(c, buf, oob)
					if seg > 0 && n > seg {
						runs++
					}
				} else {
					n, err = c.Read(buf)
				}
				if err != nil {
					return
				}
				feed.ConsumeDatagrams(buf[:n], seg)
			}
		}()
		return feed, c
	}
	groFeed, groC := subscribe(true)
	plainFeed, plainC := subscribe(false)

	live := func(from int64) bool {
		return groFeed.Live() >= from && plainFeed.Live() >= from
	}
	waitLive := func(from int64) {
		for deadline := time.Now().Add(10 * time.Second); !live(from); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the feeds stand at slots %d and %d, short of %d", groFeed.Live(), plainFeed.Live(), from)
			}
		}
	}
	waitLive(0)
	start := max(groFeed.Live(), plainFeed.Live()) + 1
	waitLive(start + span + 16)
	cancel()
	groC.Close()
	plainC.Close()
	wg.Wait()
	groFeed.Close()
	plainFeed.Close()

	if runs == 0 {
		t.Fatal("the GRO socket read no run of datagrams")
	}
	heard := 0
	for ch := range nch {
		for abs := start; abs < start+span; abs++ {
			g, _ := groFeed.PacketAt(ch, abs)
			p, _ := plainFeed.PacketAt(ch, abs)
			if g.Ver == 0 || p.Ver == 0 {
				continue // lost on loopback by one of the two
			}
			heard++
			if g.Slot != p.Slot || g.Flags != p.Flags || !bytes.Equal(g.Payload, p.Payload) {
				t.Fatalf("channel %d slot %d: the GRO feed serves %+v, the plain one %+v", ch, abs, g, p)
			}
		}
	}
	if heard < nch*span*9/10 {
		t.Fatalf("both feeds heard %d of %d packets", heard, nch*span)
	}
	gd, gv := groFeed.DirectoryAt(0)
	pd, pv := plainFeed.DirectoryAt(0)
	if gv != 1 || pv != 1 || !bytes.Equal(gd, pd) {
		t.Fatalf("directories %q v%d and %q v%d", gd, gv, pd, pv)
	}
}
