package station

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// The eager encoder the transmitter used before parity was encoded on
// read, kept as the oracle of the encoder that builds each tail where
// it is read.

// buildParity encodes every parity frame of one channel: tails[u] is
// unit u's tail, its frames in tail order, each stride =
// wire.ParityHeaderSize + capacity bytes; all of them are windows of one
// arena, in unit order. logical fills a run of the channel's logical
// packets from a logical slot, appending the payload bytes it builds to
// the buffer it is handed (ReadRunAt's contract).
func buildParity(c *tableChan, cfg wire.FECConfig, capacity int, logical func(dst []Packet, b []byte, log int) []byte) (tails [][]byte) {
	stride := wire.ParityHeaderSize + capacity
	frames := 0
	for _, u := range c.units {
		frames += unitCode(cfg, u.table).Tail()
	}
	out := make([]byte, frames*stride)
	var arena, built []byte // member symbols and payloads of the unit at hand; nothing below retains them
	var syms, data, rows [][]byte
	var pkts []Packet
	first := 0 // the unit's first frame in out
	for _, u := range c.units {
		code := unitCode(cfg, u.table)
		tails = append(tails, out[first*stride:(first+code.Tail())*stride])
		if !code.Enabled() {
			continue
		}
		// Member symbols: payloads zero-padded to capacity. Short and
		// absent payloads (table tails, padding objects) pad to all-zero
		// symbols, which the receiver reproduces from catalog geometry.
		if len(arena) < u.n*capacity {
			arena = make([]byte, u.n*capacity)
			built = make([]byte, 0, u.n*capacity)
			pkts = make([]Packet, u.n)
		}
		clear(arena[:u.n*capacity])
		logical(pkts[:u.n], built, u.logStart)
		syms = syms[:0]
		for i := 0; i < u.n; i++ {
			sym := arena[i*capacity : (i+1)*capacity]
			copy(sym, pkts[i].Payload)
			syms = append(syms, sym)
		}
		for grp := 0; grp < code.Groups; grp++ {
			members, k := code.GroupMembers(u.n, grp)
			data = data[:0]
			for i := grp; i < u.n; i += code.Groups {
				data = append(data, syms[i])
			}
			// Row j of the group is tail offset j*Groups+grp: its symbol
			// is computed straight into that frame's symbol bytes.
			rows = rows[:0]
			for j := 0; j < code.Parity; j++ {
				at := (first + j*code.Groups + grp) * stride
				rows = append(rows, out[at+wire.ParityHeaderSize:at+stride])
			}
			wire.RSParityInto(rows, data)
			for j, sym := range rows {
				at := (first + j*code.Groups + grp) * stride
				wire.PutParity(out[at:at+stride], wire.ParityHeader{
					Unit:    uint32(u.logStart),
					Group:   uint8(grp),
					K:       uint8(k),
					R:       uint8(code.Parity),
					Index:   uint8(j),
					Members: members,
				}, sym)
			}
		}
		first += code.Tail()
	}
	return tails
}

// eagerParity is every channel's unit tails of g as the eager encoder
// builds them over the table-built geometry: [channel][unit].
func eagerParity(t testing.TB, g *generation) [][][]byte {
	o, err := newTableGeom(g.lay, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]byte, len(o.chs))
	for ch := range out {
		out[ch] = buildParity(&o.chs[ch], g.cfg, g.lay.X.Cfg.Capacity,
			func(dst []Packet, b []byte, log int) []byte { return g.fillLogical(dst, b, 0, ch, log) })
	}
	return out
}

// span is a run of slots on one channel.
type span struct {
	ch  int
	abs int64
	n   int
}

// tailRuns are runs covering every parity slot of the cycle of channel
// ch under g that starts at absolute slot from: each unit's tail, cut at
// a random slot into two runs, the first of which starts on the unit's
// last member one time in two.
func tailRuns(rng *rand.Rand, g *generation, ch int, from int64) []span {
	var out []span
	c := &g.fec.chs[ch]
	for ui := range c.units() {
		u := c.unit(ui)
		tail := g.fec.code(u.table).Tail()
		if tail == 0 {
			continue
		}
		start := from + int64(u.physStart+u.n)
		cut := 1 + rng.Intn(tail)
		lead := rng.Intn(2)
		out = append(out, span{ch, start - int64(lead), cut + lead})
		if cut < tail {
			out = append(out, span{ch, start + int64(cut), tail - cut})
		}
	}
	return out
}

// readBufs are the buffers the parity tests read runs into, for a run
// of n slots: none, Capacity bytes a slot (short of a parity frame, so
// the source sizes a fresh buffer for the rest of the run) and a parity
// frame's room a slot, the read a byte-level receiver makes.
var readBufs = []struct {
	name string
	size func(n, capacity int) int // -1: no buffer
}{
	{"nil", func(int, int) int { return -1 }},
	{"capacity-sized", func(n, capacity int) int { return n * capacity }},
	{"stride-sized", func(n, capacity int) int { return n * (capacity + wire.ParityHeaderSize) }},
}

// checkParityRun reads run s of tx into buf and holds every parity slot
// it serves to the oracle tail of the generation on air at that slot
// (oracle is keyed by generation).
func checkParityRun(tx *MultiTransmitter, oracle map[*generation][][][]byte, s span, dst []Packet, buf []byte) error {
	dst = dst[:s.n]
	tx.ReadRunAt(dst, buf, s.ch, s.abs)
	a := tx.air.Load()
	for i, p := range dst {
		abs := s.abs + int64(i)
		g := a.cur
		if a.next != nil && abs >= a.next.clocks[s.ch].phase {
			g = a.next
		}
		slot := g.rel(s.ch, abs)
		c := &g.fec.chs[s.ch]
		ui, u := c.covering(slot)
		m := slot - u.physStart
		if m < u.n {
			if p.Flags&flagParity != 0 {
				return fmt.Errorf("ch %d abs %d: member slot flagged as parity", s.ch, abs)
			}
			continue
		}
		stride := wire.ParityHeaderSize + g.lay.X.Cfg.Capacity
		at := (m - u.n) * stride
		if p.Flags&flagParity == 0 || !bytes.Equal(p.Payload, oracle[g][s.ch][ui][at:at+stride]) {
			return fmt.Errorf("ch %d abs %d (version %d, unit at %d, tail offset %d, %d-slot run into a %d-byte buffer): parity differs from the eager encoder's",
				s.ch, abs, g.version, u.logStart, m-u.n, s.n, cap(buf))
		}
	}
	return nil
}

// TestParityReadMatchesEager: four readers read every parity slot of a
// full cycle of every channel through ReadRunAt at once, in shuffled
// runs that cut tails and start on members, into no buffer, a
// capacity-sized and a stride-sized one in turn, so the encodes of one
// channel race and each reader's runs alternate units; each read equals
// the eager encoder's frame byte for byte. The beds: the massive
// testbed's coded arm (XOR, one channel), the wire_lossy shape (four
// shard channels, objects RS 4×2, tables 1×2), and an XOR→RS code swap
// staged by StageFEC, read over the last old cycle and the first new
// one of every channel, and across every channel's seam.
func TestParityReadMatchesEager(t *testing.T) {
	type bed struct {
		name string
		tx   func(t *testing.T) *MultiTransmitter
	}
	static := func(b codedBed) func(t *testing.T) *MultiTransmitter {
		return func(t *testing.T) *MultiTransmitter {
			tx, err := NewMultiTransmitterFEC(b.lay, b.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return tx
		}
	}
	swap := func(t *testing.T) *MultiTransmitter {
		_, x, lay0 := wireTestBed(t, 600, 557, quarterBounds)
		lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
		})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewMultiTransmitterFEC(lay0, xorCode())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.StageFEC(lay1, wireLossyCode, int64(lay0.ProbeCycle())/3); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	for _, b := range []bed{
		{"massive", static(massiveCodedBed(t))},
		{"wire_lossy", static(wireLossyBed(t))},
		{"xor-to-rs", swap},
	} {
		t.Run(b.name, func(t *testing.T) {
			tx := b.tx(t)
			a := tx.air.Load()
			oracle := map[*generation][][][]byte{a.cur: eagerParity(t, a.cur)}
			if a.next != nil {
				oracle[a.next] = eagerParity(t, a.next)
			}
			capacity := a.cur.lay.X.Cfg.Capacity
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := range errs {
				rng := rand.New(rand.NewSource(int64(w)))
				var runs []span
				for ch := range a.cur.clocks {
					if a.next == nil {
						// A cycle some way into the broadcast.
						runs = append(runs, tailRuns(rng, a.cur, ch, 3*a.cur.clocks[ch].len)...)
						continue
					}
					seam := a.next.clocks[ch].phase
					runs = append(runs, tailRuns(rng, a.cur, ch, seam-a.cur.clocks[ch].len)...)
					runs = append(runs, tailRuns(rng, a.next, ch, seam)...)
					runs = append(runs, span{ch, seam - 40, 80})
				}
				rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]Packet, 80)
					for i, s := range runs {
						var buf []byte
						if size := readBufs[i%len(readBufs)].size(s.n, capacity); size >= 0 {
							buf = make([]byte, 0, size)
						}
						if errs[w] = checkParityRun(tx, oracle, s, dst, buf); errs[w] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("reader %d: %v", w, err)
				}
			}
		})
	}
}

// FuzzParityRead reads a run from a random slot of a random unit — its
// members or its parity tail, the tail cut anywhere, the run going on
// into the units after it — into a buffer of random capacity cut from a
// canary arena, and holds every parity frame to the eager encoder's and
// every byte past the buffer's capacity to its canary. The beds: the
// wire_lossy shape and a single channel under XOR.
func FuzzParityRead(f *testing.F) {
	_, x, shard := wireTestBed(f, 300, 557, quarterBounds)
	var txs []*MultiTransmitter
	oracle := map[*generation][][][]byte{}
	for _, b := range []codedBed{{"wire_lossy", shard, wireLossyCode}, {"single-xor", x.SingleLayout(), xorCode()}} {
		tx, err := NewMultiTransmitterFEC(b.lay, b.cfg)
		if err != nil {
			f.Fatal(err)
		}
		g := tx.air.Load().cur
		oracle[g] = eagerParity(f, g)
		txs = append(txs, tx)
	}
	f.Add(uint8(0), uint8(0), uint32(0), uint8(0), uint8(2), uint16(0))
	f.Add(uint8(0), uint8(1), uint32(7), uint8(20), uint8(3), uint16(246))
	f.Add(uint8(1), uint8(0), uint32(12), uint8(17), uint8(40), uint16(1000))
	f.Add(uint8(1), uint8(0), uint32(3), uint8(1), uint8(1), uint16(81))
	f.Fuzz(func(t *testing.T, bed, ch uint8, unit uint32, from, n uint8, bufCap uint16) {
		tx := txs[int(bed)%len(txs)]
		g := tx.air.Load().cur
		c := &g.fec.chs[int(ch)%len(g.fec.chs)]
		u := c.unit(int(unit % uint32(c.units())))
		start := u.physStart + int(from)%(u.n+g.fec.code(u.table).Tail())
		s := span{int(ch) % len(g.fec.chs), int64(start), 1 + int(n)%64}
		const guard = 64
		size := int(bufCap) % (s.n*g.slotBytes + 1)
		arena := bytes.Repeat([]byte{0xc3}, size+guard)
		if err := checkParityRun(tx, oracle, s, make([]Packet, s.n), arena[:0:size]); err != nil {
			t.Fatal(err)
		}
		for i, b := range arena[size:] {
			if b != 0xc3 {
				t.Fatalf("%d-slot run into a %d-byte buffer wrote byte %d past it", s.n, size, i)
			}
		}
	})
}

// TestSingleSlotReadsEncodeATailOnce: a channel's scratch keeps the
// last tail it encoded, so reading one tail slot by slot encodes it
// once. Scribbling over the scratch after the first slot shows the
// later slots served from it; a read of another unit's tail, and then
// of the first one's again, encodes each afresh and matches the oracle.
func TestSingleSlotReadsEncodeATailOnce(t *testing.T) {
	bed := wireLossyBed(t)
	tx, err := NewMultiTransmitterFEC(bed.lay, bed.cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := tx.air.Load().cur
	oracle := map[*generation][][][]byte{g: eagerParity(t, g)}
	ch := bed.lay.StartCh + 1 // a data channel: object tails of 8 frames
	c := &g.fec.chs[ch]
	u0, u1 := c.unit(3), c.unit(4)
	tail := g.fec.code(u0.table).Tail()
	if tail < 2 {
		t.Fatalf("a %d-frame tail", tail)
	}
	at0 := int64(u0.physStart + u0.n)
	dst := make([]Packet, tail)
	if err := checkParityRun(tx, oracle, span{ch, at0, 1}, dst, nil); err != nil {
		t.Fatal(err)
	}
	s := &g.tails[ch]
	s.mu.Lock()
	for i := range s.frames {
		s.frames[i] = 0xa5
	}
	s.mu.Unlock()
	for i := 1; i < tail; i++ {
		p, _ := tx.PacketAt(ch, at0+int64(i))
		if len(p.Payload) == 0 || p.Payload[0] != 0xa5 {
			t.Fatalf("tail slot %d of a tail just read was encoded again", i)
		}
	}
	for _, s := range []span{{ch, int64(u1.physStart + u1.n), tail}, {ch, at0, tail}} {
		if err := checkParityRun(tx, oracle, s, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// scratchHeld reports, per channel of g, whether its scratch holds a
// tail, and the unit it holds.
func scratchHeld(g *generation) (held []bool, units []int) {
	for ch := range g.tails {
		s := &g.tails[ch]
		s.mu.Lock()
		held, units = append(held, s.frames != nil), append(units, s.ui)
		s.mu.Unlock()
	}
	return held, units
}

// TestStagedGenerationEncodesNothing: StageFEC builds the staged
// generation without allocating a parity byte — it allocates what a
// stage to the zero code does, plus a scratch header a channel — and
// reading the whole last old cycle of every channel encodes into the
// old generation's scratch only; a run past a channel's seam into the
// first unit's tail encodes that unit into the staged channel's.
func TestStagedGenerationEncodesNothing(t *testing.T) {
	_, x, lay0 := wireTestBed(t, 300, 557, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	newTx := func() *MultiTransmitter {
		tx, err := NewMultiTransmitterFEC(lay0, xorCode())
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// Both stages find the staged geometry built, so neither counts it.
	geo, err := sharedFECGeom(lay1, rsCode())
	if err != nil {
		t.Fatal(err)
	}
	staged := func(tx *MultiTransmitter, cfg wire.FECConfig) int64 {
		return ownHeap(func() {
			if _, err := tx.StageFEC(lay1, cfg, 0); err != nil {
				t.Fatal(err)
			}
		}).bytes
	}
	tx, plain := newTx(), newTx()
	if held, _ := scratchHeld(tx.air.Load().cur); slices.Contains(held, true) {
		t.Fatalf("a fresh transmitter's scratch holds a tail: %v", held)
	}
	coded, uncoded := staged(tx, rsCode()), staged(plain, wire.FECConfig{})
	frames := 0
	for ch := range geo.chs {
		frames += geo.chs[ch].parityFrames()
	}
	cycle := int64(frames * (wire.ParityHeaderSize + x.Cfg.Capacity))
	bound := int64(lay1.Channels()) * int64(unsafe.Sizeof(tailScratch{})+64)
	t.Logf("StageFEC allocated %d B coded, %d B to the zero code; a cycle's parity frames are %d B", coded, uncoded, cycle)
	if coded-uncoded > bound {
		t.Errorf("a coded stage allocated %d B more than an uncoded one, bound %d B (a cycle's parity is %d B)", coded-uncoded, bound, cycle)
	}
	a := tx.air.Load()
	if held, _ := scratchHeld(a.next); slices.Contains(held, true) {
		t.Fatalf("after StageFEC the staged scratch holds a tail: %v", held)
	}
	for ch := range a.cur.clocks {
		seam := a.next.clocks[ch].phase
		n := a.cur.clocks[ch].len
		tx.ReadRunAt(make([]Packet, n), nil, ch, seam-n)
	}
	if held, _ := scratchHeld(a.cur); slices.Contains(held, false) {
		t.Fatalf("after its last cycle the old scratch holds no tail on some channel: %v", held)
	}
	if held, _ := scratchHeld(a.next); slices.Contains(held, true) {
		t.Fatalf("reads before the seams encoded into the staged scratch: %v", held)
	}
	for ch := range a.next.clocks {
		// The run ends on the first unit's tail.
		u := a.next.fec.chs[ch].unit(0)
		tx.ReadRunAt(make([]Packet, u.n+1), nil, ch, a.next.clocks[ch].phase)
	}
	if held, units := scratchHeld(a.next); slices.Contains(held, false) || slices.ContainsFunc(units, func(ui int) bool { return ui != 0 }) {
		t.Fatalf("after a run through unit 0's tail the staged scratch holds %v, units %v; want unit 0 everywhere", held, units)
	}
}

// TestParityFirstReadAllocatesNothing: once a channel's scratch has
// encoded one tail, reading every tail of the channel — each run
// another unit's, so each encodes — into a stride-sized buffer
// allocates nothing.
func TestParityFirstReadAllocatesNothing(t *testing.T) {
	bed := wireLossyBed(t)
	tx, err := NewMultiTransmitterFEC(bed.lay, bed.cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := tx.air.Load().cur
	dst := make([]Packet, 64)
	buf := make([]byte, 0, len(dst)*g.slotBytes)
	var runs []span
	for ch := range g.fec.chs {
		for ui := range g.fec.chs[ch].units() {
			u := g.fec.chs[ch].unit(ui)
			runs = append(runs, span{ch, int64(u.physStart + u.n), g.fec.code(u.table).Tail()})
		}
	}
	read := func() {
		for _, s := range runs {
			tx.ReadRunAt(dst[:s.n], buf, s.ch, s.abs)
		}
	}
	read() // every channel's scratch
	if use := ownHeap(read); use.allocs != 0 {
		t.Errorf("reading %d tails into a stride-sized buffer made %d allocations, want none", len(runs), use.allocs)
	}
}
