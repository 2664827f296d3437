package station

import (
	"bytes"
	"encoding/binary"
	"runtime/debug"
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// refObjectPayload is the whole-object construction every transmitter
// used before payloads became range-addressed, kept as the oracle
// AppendObjectPart is held to.
func refObjectPayload(h wire.ObjectHeader, id, size int) []byte {
	buf := make([]byte, size)
	copy(buf, wire.EncodeHeader(h))
	for at := wire.HeaderSize; at+8 <= size; at += 8 {
		binary.BigEndian.PutUint64(buf[at:], uint64(id)*0x9e3779b97f4a7c15+uint64(at))
	}
	return buf
}

// recoverUnit is the solver with throwaway scratch, as
// TestRecoverUnitPatterns drives it.
func recoverUnit(code wire.FECCode, n, capacity int, pay [][]byte, okMask uint64, tail [][]byte, need uint64) ([][]byte, bool) {
	return new(fecSolver).recoverUnit(code, n, capacity, pay, okMask, tail, need)
}

func TestObjectPartMatchesPayload(t *testing.T) {
	h := wire.ObjectHeader{X: 0x01020304, Y: 0xa1a2a3a4, HC: 0xf1f2f3f4f5f6f7f8}
	const id = 4711
	prefix := []byte("prefix")
	for _, size := range []int{32, 33, 39, 40, 41, 64, 100, 256, 1000, 1024} {
		want := refObjectPayload(h, id, size)
		if got := AppendObjectPart(nil, h, id, size, 0, size); !bytes.Equal(got, want) {
			t.Fatalf("size %d: the whole object departs from the reference", size)
		}
		for _, capacity := range []int{1, 3, 7, 8, 13, 32, 33, 64, 100, 512, 2048} {
			for from := 0; from < size; from += capacity {
				to := min(from+capacity, size)
				got := AppendObjectPart(append([]byte(nil), prefix...), h, id, size, from, to)
				if !bytes.HasPrefix(got, prefix) {
					t.Fatalf("size %d capacity %d part [%d,%d): dst prefix clobbered", size, capacity, from, to)
				}
				if !bytes.Equal(got[len(prefix):], want[from:to]) {
					t.Fatalf("size %d capacity %d part [%d,%d) = %x, want %x",
						size, capacity, from, to, got[len(prefix):], want[from:to])
				}
			}
		}
	}
	// Every range of the small sizes, so each edge case of the filler —
	// a range inside one word, starting or ending mid-word, inside the
	// header or the zero tail — meets every offset within a word.
	for size := 32; size <= 88; size++ {
		want := refObjectPayload(h, id, size)
		for from := 0; from <= size; from++ {
			for to := from; to <= size; to++ {
				if got := AppendObjectPart(nil, h, id, size, from, to); !bytes.Equal(got, want[from:to]) {
					t.Fatalf("size %d part [%d,%d) = %x, want %x", size, from, to, got, want[from:to])
				}
			}
		}
	}
	// Stale bytes in dst's spare capacity must not leak into the zero
	// tail or anywhere else.
	dirty := bytes.Repeat([]byte{0xff}, 64)
	if got := AppendObjectPart(dirty[:0], h, id, 47, 30, 47); !bytes.Equal(got, refObjectPayload(h, id, 47)[30:47]) {
		t.Fatalf("part over a dirty buffer = %x", got)
	}
}

func FuzzObjectPart(f *testing.F) {
	f.Add(1024, 64, 128, 7)
	f.Add(41, 30, 41, 1)
	f.Add(100, 37, 99, 123456)
	f.Add(16, 3, 11, 5)
	f.Add(32, 0, 32, 0)
	f.Fuzz(func(t *testing.T, size, from, to, id int) {
		if size < 0 || size > 1<<16 || from < 0 || from > to || to > size {
			t.Skip()
		}
		h := wire.ObjectHeader{X: uint32(id), Y: uint32(size), HC: uint64(id) << 7}
		want := refObjectPayload(h, id, size)[from:to]
		got := AppendObjectPart([]byte{0xee}, h, id, size, from, to)
		if got[0] != 0xee || !bytes.Equal(got[1:], want) {
			t.Fatalf("size %d id %d part [%d,%d) = %x, want %x", size, id, from, to, got[1:], want)
		}
	})
}

// wireLossyCode is the erasure code of the benchmark's wire_lossy
// workload; wireTestBed is its layout shape.
var wireLossyCode = wire.FECConfig{
	Table:  wire.FECCode{Groups: 1, Parity: 2},
	Object: wire.FECCode{Groups: 4, Parity: 2},
}

// TestPacketAtAllocatesItsSlot pins what a slot costs: through PacketAt
// a data slot allocates its own payload — once, at most Capacity bytes —
// and so does a parity slot, a parity frame's bytes (ParityHeaderSize
// more), while table slots, served from the pre-encoded tables,
// allocate nothing; read into a buffer of the reader's — a parity slot
// into one of a parity frame's room — no slot of any kind allocates; and
// a longer run into no buffer allocates once.
func TestPacketAtAllocatesItsSlot(t *testing.T) {
	_, x, lay := wireTestBed(t, 300, 557, quarterBounds)
	tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		ch  int
		abs int64
	}
	var table, parity, data []at
	for ch := 0; ch < lay.Channels(); ch++ {
		for s := 0; s < tx.ChanSlots(ch); s++ {
			p, _ := tx.PacketAt(ch, int64(s))
			switch {
			case p.Flags&flagIndex != 0:
				table = append(table, at{ch, int64(s)})
			case p.Flags&flagParity != 0:
				parity = append(parity, at{ch, int64(s)})
			default:
				data = append(data, at{ch, int64(s)})
			}
		}
	}
	if len(table) == 0 || len(parity) == 0 || len(data) == 0 {
		t.Fatalf("cycle has %d table, %d parity, %d data slots", len(table), len(parity), len(data))
	}
	capacity := x.Cfg.Capacity
	// The budgets are exact, so keep collections, and what they start,
	// out of the measured sweeps.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A parity frame's allocation, rounded up to its size class as the
	// profile counts it.
	var frame []byte
	frameBytes := int(ownHeap(func() { frame = make([]byte, capacity+wire.ParityHeaderSize) }).bytes)
	if len(frame) == 0 || frameBytes < len(frame) {
		t.Fatalf("a %d-byte frame measured %d bytes", len(frame), frameBytes)
	}
	buf := make([]byte, 0, capacity)
	strideBuf := make([]byte, 0, capacity+wire.ParityHeaderSize)
	for _, tc := range []struct {
		kind           string
		slots          []at
		buf            []byte
		allocs, nbytes int // per-slot budget
	}{
		{"table", table, nil, 0, 0},
		{"parity", parity, nil, 1, frameBytes},
		{"data", data, nil, 1, capacity},
		{"table into a buffer", table, buf, 0, 0},
		{"parity into a stride-sized buffer", parity, strideBuf, 0, 0},
		{"data into a buffer", data, buf, 0, 0},
	} {
		var run [1]Packet
		sweep := func() {
			for _, s := range tc.slots {
				var p Packet
				if tc.buf == nil {
					p, _ = tx.PacketAt(s.ch, s.abs)
				} else {
					tx.ReadRunAt(run[:], tc.buf, s.ch, s.abs)
					p = run[0]
				}
				limit := capacity
				if p.Flags&flagParity != 0 {
					limit += wire.ParityHeaderSize // a capacity-sized symbol plus its header
				}
				if len(p.Payload) > limit {
					t.Fatalf("%s slot %d/%d: %d-byte payload, limit %d", tc.kind, s.ch, s.abs, len(p.Payload), limit)
				}
			}
		}
		sweep() // warm
		use := ownHeap(sweep)
		if got, budget := use.allocs, int64(tc.allocs*len(tc.slots)); got > budget {
			t.Errorf("%s slots: %d allocations over %d slots, budget %d", tc.kind, got, len(tc.slots), budget)
		}
		if got, budget := use.bytes, int64(tc.nbytes*len(tc.slots)); got > budget {
			t.Errorf("%s slots: %d bytes allocated over %d slots, budget %d", tc.kind, got, len(tc.slots), budget)
		}
	}

	// A run into no buffer builds all its payloads into one allocation:
	// an object and its parity tail from each object's first packet.
	run := make([]Packet, x.ObjPackets+wireLossyCode.Object.Tail())
	var starts []at
	for _, s := range data {
		if p, _ := tx.PacketAt(s.ch, s.abs); p.Flags&flagObjectStart != 0 {
			starts = append(starts, s)
		}
	}
	runs := func() {
		for _, s := range starts {
			tx.ReadRunAt(run, nil, s.ch, s.abs)
		}
	}
	runs()
	if got := ownHeap(runs).allocs; got != int64(len(starts)) {
		t.Errorf("%d object runs into no buffer: %d allocations, want one a run", len(starts), got)
	}
}

// TestHeaderMustFit: an object whose first packet cannot hold the wire
// header used to hang every byte-level query (each header read failed
// to decode, forever). Every byte-level constructor now refuses it with
// an error naming both sizes; the simulator, which decodes no header,
// still serves it.
func TestHeaderMustFit(t *testing.T) {
	for _, tc := range []struct {
		cfg  dsi.Config
		want string // the offending size in the error
	}{
		{dsi.Config{Capacity: 64, ObjectBytes: 16, ReserveMCPtr: true}, "16-byte object"},
		{dsi.Config{Capacity: 16, ObjectBytes: 64, ReserveMCPtr: true}, "16-byte packet"},
	} {
		ds := dataset.Uniform(200, 6, 563)
		x, err := dsi.Build(ds, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 3, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: []int{0, x.NF / 2, x.NF},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, lay := range []*dsi.Layout{x.SingleLayout(), shard} {
			_, errTx := NewMultiTransmitter(lay)
			_, errFEC := NewMultiTransmitterFEC(lay, xorCode())
			_, errRx := NewWireReceiver(lay, 1, nil, 0, nil)
			_, errFRx := NewFECReceiver(lay, 1, nil, xorCode(), 0, nil)
			for name, err := range map[string]error{
				"NewMultiTransmitter": errTx, "NewMultiTransmitterFEC": errFEC,
				"NewWireReceiver": errRx, "NewFECReceiver": errFRx,
			} {
				if err == nil {
					t.Fatalf("%+v: %s accepted an undecodable stream", tc.cfg, name)
				}
				if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "32-byte") {
					t.Fatalf("%+v: %s: error %q does not name both sizes", tc.cfg, name, msg)
				}
			}
		}

		sess, err := dsi.Open(x)
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.Rect{MinX: 5, MinY: 5, MaxX: 40, MaxY: 40}
		got, _ := sess.Window(w)
		if want := ds.WindowBrute(w); !equalIDs(got, want) {
			t.Fatalf("%+v: simulator answered %d objects, brute force %d", tc.cfg, len(got), len(want))
		}
	}
}

// TestUnitBeyondSixtyFourPacketsRefused: the receiver reads a unit in
// runs of at most 64 slots and tracks its members in 64-bit masks, so a
// layout whose objects span more packets is refused at construction
// rather than mid-query. The transmitter still serves it.
func TestUnitBeyondSixtyFourPacketsRefused(t *testing.T) {
	x, err := dsi.Build(dataset.Uniform(200, 6, 563), dsi.Config{Capacity: 32, ObjectBytes: 65 * 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiTransmitter(x.SingleLayout()); err != nil {
		t.Fatal(err)
	}
	_, err = NewWireReceiver(x.SingleLayout(), 1, nil, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "65-packet") {
		t.Fatalf("a receiver of 65-packet objects: error %v", err)
	}
}

// BenchmarkMultiTransmitterPacketAt sweeps one full cycle of every
// channel per iteration over the wire_lossy-shaped broadcast: the plain
// transmitter, the coded one, and a plain one with a swap staged, read
// across each channel's seam (half a cycle of the old generation, half
// of the new) — each through PacketAt, slot by slot into one buffer of
// the reader's, and in unit-sized runs (ObjPackets slots) into a buffer
// with a parity frame's room per slot, the read a byte-level receiver
// makes.
func BenchmarkMultiTransmitterPacketAt(b *testing.B) {
	_, x, lay := wireTestBed(b, 1200, 569, quarterBounds)
	plain, err := NewMultiTransmitter(lay)
	if err != nil {
		b.Fatal(err)
	}
	coded, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		b.Fatal(err)
	}
	staged, err := NewMultiTransmitter(lay)
	if err != nil {
		b.Fatal(err)
	}
	next, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := staged.Stage(next, 0); err != nil {
		b.Fatal(err)
	}
	atZero := func(int) int64 { return 0 }
	acrossSeam := func(ch int) int64 {
		seam, _ := staged.SeamOf(ch)
		return seam - int64(plain.ChanSlots(ch)/2)
	}
	unit := x.ObjPackets
	for _, bc := range []struct {
		name  string
		src   PacketSource
		slots func(ch int) int
		from  func(ch int) int64
		run   int // slots per ReadRunAt; 0 reads through PacketAt
	}{
		{"plain", plain, plain.ChanSlots, atZero, 0},
		{"plain-into-buffer", plain, plain.ChanSlots, atZero, 1},
		{"plain-runs", plain, plain.ChanSlots, atZero, unit},
		{"coded", coded, coded.ChanSlots, atZero, 0},
		{"coded-into-buffer", coded, coded.ChanSlots, atZero, 1},
		{"coded-runs", coded, coded.ChanSlots, atZero, unit},
		{"staged", staged, plain.ChanSlots, acrossSeam, 0},
		{"staged-into-buffer", staged, plain.ChanSlots, acrossSeam, 1},
		{"staged-runs", staged, plain.ChanSlots, acrossSeam, unit},
	} {
		b.Run(bc.name, func(b *testing.B) {
			total := 0
			for ch := 0; ch < lay.Channels(); ch++ {
				total += bc.slots(ch)
			}
			run := make([]Packet, max(bc.run, 1))
			buf := make([]byte, 0, len(run)*(x.Cfg.Capacity+wire.ParityHeaderSize))
			b.ReportAllocs()
			b.SetBytes(int64(total * x.Cfg.Capacity))
			sink := 0
			for b.Loop() {
				for ch := 0; ch < lay.Channels(); ch++ {
					from := bc.from(ch)
					for s, end := from, from+int64(bc.slots(ch)); s < end; s += int64(len(run)) {
						if bc.run == 0 {
							p, _ := bc.src.PacketAt(ch, s)
							sink += len(p.Payload)
							continue
						}
						n := min(int64(len(run)), end-s)
						bc.src.ReadRunAt(run[:n], buf, ch, s)
						for _, p := range run[:n] {
							sink += len(p.Payload)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/slot")
			if sink == 0 {
				b.Fatal("no payload bytes served")
			}
		})
	}
}
