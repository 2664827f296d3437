// Segmented sends: a run of datagrams in one write, cut back by the
// kernel into exactly the datagrams flush.datagram cuts, and a write the
// kernel refuses sent again datagram by datagram.

package netsrv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"dsi/internal/obs"
)

// cutAll is every datagram the flush holds for set, copied out.
func cutAll(fl *flush, set chanSet) [][]byte {
	var out [][]byte
	var p, scratch []byte
	for i := 0; ; {
		if p, i, scratch = fl.datagram(set, i, scratch); p == nil {
			return out
		}
		out = append(out, bytes.Clone(p))
	}
}

// sentWrite is one write a subscription made: its bytes and, for a
// segmented one, the segment size its control message carries.
type sentWrite struct {
	b   []byte
	seg int
}

// recordWrites wraps the subscription's writer: every write is recorded,
// and passed on unless refuse says the kernel refuses it.
func recordWrites(sub *udpSub, refuse func(sentWrite) bool) *[]sentWrite {
	var got []sentWrite
	write := sub.write
	sub.write = func(b, oob []byte) error {
		w := sentWrite{b: bytes.Clone(b)}
		if len(oob) > 0 {
			w.seg = int(binary.NativeEndian.Uint16(oob[syscall.CmsgLen(0):]))
		}
		got = append(got, w)
		if refuse != nil && refuse(w) {
			return errors.New("refused")
		}
		return write(b, oob)
	}
	return &got
}

// segmentingEmitter is an emitter without its goroutines, on a socket
// whose kernel segments: the test plays the send loop.
func segmentingEmitter(t *testing.T, src *stampSource, ctrl int) (*Server, *udpEmitter) {
	t.Helper()
	srv, err := New(Config{Source: src, CtrlEvery: ctrl, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	u := newUDPEmitter(srv, listenUDP(t))
	if !u.segment {
		t.Skip("the kernel does not segment UDP sends")
	}
	srv.udpMet = obs.NewNetStationMetrics(srv.cfg.Registry, "udp", srv.nch)
	srv.udp = u
	return srv, u
}

// TestSegmentedDatagramsMatchTheCut is the byte oracle of segmentation:
// a plain socket, which reads the kernel's cut of every segmented write,
// receives exactly the datagrams flush.datagram cuts, in order, and
// every write keeps the run rules.
func TestSegmentedDatagramsMatchTheCut(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nch, size    int
		ctrl, ch     int
		slots        int
		wantSegments bool
	}{
		// 200 slots of 3 × 88 bytes, control frames at slots 0 and 128:
		// runs end at 64 datagrams and around each control slot.
		{"every channel", 3, 64, 128, -1, 200, true},
		// Channel 2's frames lie apart in the flush: each is gathered.
		{"DSIJOIN 2", 3, 64, 128, 2, 200, true},
		// 4 × 624 bytes split into 1 248-byte datagrams: runs end at
		// 65 000 bytes.
		{"slot split past the budget", 4, 600, 1 << 20, -1, 80, true},
		// A 2 024-byte frame is past the budget: every datagram alone.
		{"frame past the budget", 2, 2000, 1 << 20, -1, 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, u := segmentingEmitter(t, newStampSource(tc.nch, tc.size, true), tc.ctrl)
			sink := listenUDP(t)
			_ = sink.SetReadBuffer(4 << 20)
			sub := u.unicast(sink.LocalAddr().(*net.UDPAddr).AddrPort(), tc.ch)
			writes := recordWrites(sub, nil)
			u.subs[sink.LocalAddr().(*net.UDPAddr).AddrPort()] = sub

			fl := srv.buildFlush(tc.slots)
			want := cutAll(fl, sub.chans)
			u.emit(fl)

			buf := make([]byte, 64<<10)
			for d, w := range want {
				_ = sink.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := sink.Read(buf)
				if err != nil {
					t.Fatalf("datagram %d of %d: %v", d, len(want), err)
				}
				if !bytes.Equal(buf[:n], w) {
					t.Fatalf("datagram %d: %d bytes, not the %d-byte cut", d, n, len(w))
				}
			}

			segmented, sent := 0, 0
			for _, w := range *writes {
				if w.seg == 0 {
					sent++
					continue
				}
				segmented++
				segs := (len(w.b) + w.seg - 1) / w.seg
				sent += segs
				if segs < 2 || segs > maxSegments || len(w.b) > maxRunBytes || w.seg > dgramBudget {
					t.Fatalf("segmented write of %d bytes in %d-byte segments breaks the run rules", len(w.b), w.seg)
				}
			}
			if sent != len(want) {
				t.Fatalf("writes carried %d datagrams, want %d", sent, len(want))
			}
			if (segmented > 0) != tc.wantSegments {
				t.Fatalf("%d segmented writes of %d", segmented, len(*writes))
			}
			m := srv.udpMet
			if d, w := m.Datagrams.Value(), m.DatagramWrites.Value(); d != int64(len(want)) || w != int64(len(*writes)) {
				t.Fatalf("booked %d datagrams in %d writes, want %d in %d", d, w, len(want), len(*writes))
			}
		})
	}
}

// TestRefusedSegmentedWriteIsSentDatagramByDatagram: a segmented write
// the kernel refuses goes out again datagram by datagram, byte for byte
// the cut, and the subscription segments no more; a failure that a
// plain write shares is not a refusal of segmentation.
func TestRefusedSegmentedWriteIsSentDatagramByDatagram(t *testing.T) {
	t.Run("refused", func(t *testing.T) {
		srv, u := segmentingEmitter(t, newStampSource(3, 64, true), 128)
		sink := listenUDP(t)
		sub := u.unicast(sink.LocalAddr().(*net.UDPAddr).AddrPort(), -1)
		writes := recordWrites(sub, func(w sentWrite) bool { return w.seg > 0 })
		u.subs[sink.LocalAddr().(*net.UDPAddr).AddrPort()] = sub

		for flush := 0; flush < 2; flush++ {
			*writes = (*writes)[:0]
			fl := srv.buildFlush(100)
			want := cutAll(fl, nil)
			d0, w0 := srv.udpMet.Datagrams.Value(), srv.udpMet.DatagramWrites.Value()
			u.emit(fl)

			var plain [][]byte
			segmented := 0
			for _, w := range *writes {
				if w.seg > 0 {
					segmented++
					continue
				}
				plain = append(plain, w.b)
			}
			if fmt.Sprint(plain) != fmt.Sprint(want) {
				t.Fatalf("flush %d: %d datagrams sent plain, not the %d of the cut", flush, len(plain), len(want))
			}
			if wantSeg := map[bool]int{true: 1, false: 0}[flush == 0]; segmented != wantSeg {
				t.Fatalf("flush %d: %d segmented writes tried, want %d", flush, segmented, wantSeg)
			}
			if sub.segment {
				t.Fatalf("flush %d: the subscription still segments", flush)
			}
			if d, w := srv.udpMet.Datagrams.Value()-d0, srv.udpMet.DatagramWrites.Value()-w0; d != w || d != int64(len(want)) {
				t.Fatalf("flush %d: booked %d datagrams in %d writes, want %d in as many", flush, d, w, len(want))
			}
		}
	})

	t.Run("every write fails", func(t *testing.T) {
		srv, u := segmentingEmitter(t, newStampSource(3, 64, false), 128)
		sink := listenUDP(t)
		sub := u.unicast(sink.LocalAddr().(*net.UDPAddr).AddrPort(), -1)
		writes := recordWrites(sub, func(sentWrite) bool { return true })
		u.subs[sink.LocalAddr().(*net.UDPAddr).AddrPort()] = sub
		u.emit(srv.buildFlush(10))
		if !sub.segment {
			t.Fatal("a failure plain writes share stopped the subscription segmenting")
		}
		if n := len(*writes); n != 11 {
			t.Fatalf("%d writes, want the segmented one and 10 plain", n)
		}
	})
}
