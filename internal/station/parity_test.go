package station

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// The eager encoder the transmitter used before parity was encoded on
// first read, kept verbatim as the oracle of the lazy one.

// buildParity encodes every parity frame of one channel into one arena:
// frame f of the channel — the f-th in unit order, each unit's in tail
// order — at bytes [f*stride, (f+1)*stride), stride being
// wire.ParityHeaderSize + capacity. A unit's frames start at frame
// u.parity. logical fills a run of the channel's logical packets from
// a logical slot, appending the payload bytes it builds to the buffer
// it is handed (ReadRunAt's contract).
func buildParity(c *tableChan, cfg wire.FECConfig, capacity int, logical func(dst []Packet, b []byte, log int) []byte) []byte {
	stride := wire.ParityHeaderSize + capacity
	frames := 0
	for _, u := range c.units {
		frames += unitCode(cfg, u.table).Tail()
	}
	out := make([]byte, frames*stride)
	var arena, built []byte // member symbols and payloads of the unit at hand; nothing below retains them
	var syms, data, rows [][]byte
	var pkts []Packet
	for _, u := range c.units {
		code := unitCode(cfg, u.table)
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
				at := (int(u.parity) + j*code.Groups + grp) * stride
				rows = append(rows, out[at+wire.ParityHeaderSize:at+stride])
			}
			wire.RSParityInto(rows, data)
			for j, sym := range rows {
				at := (int(u.parity) + j*code.Groups + grp) * stride
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
	}
	return out
}

// eagerParity is every channel's parity arena of g as the eager encoder
// builds it over the table-built geometry.
func eagerParity(t *testing.T, g *generation) [][]byte {
	o, err := newTableGeom(g.lay, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(o.chs))
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

// checkParityRun reads run s of tx and holds every parity slot it
// serves to the oracle arena of the generation on air at that slot
// (oracle is keyed by generation).
func checkParityRun(tx *MultiTransmitter, oracle map[*generation][][]byte, s span, dst []Packet) error {
	dst = dst[:s.n]
	tx.ReadRunAt(dst, nil, s.ch, s.abs)
	a := tx.air.Load()
	for i, p := range dst {
		abs := s.abs + int64(i)
		g := a.cur
		if a.next != nil && abs >= a.next.clocks[s.ch].phase {
			g = a.next
		}
		slot := g.rel(s.ch, abs)
		c := &g.fec.chs[s.ch]
		_, u := c.covering(slot)
		m := slot - u.physStart
		if m < u.n {
			if p.Flags&flagParity != 0 {
				return fmt.Errorf("ch %d abs %d: member slot flagged as parity", s.ch, abs)
			}
			continue
		}
		stride := wire.ParityHeaderSize + g.lay.X.Cfg.Capacity
		at := (int(u.parity) + m - u.n) * stride
		if p.Flags&flagParity == 0 || !bytes.Equal(p.Payload, oracle[g][s.ch][at:at+stride]) {
			return fmt.Errorf("ch %d abs %d (version %d, unit at %d, tail offset %d): parity differs from the eager encoder's",
				s.ch, abs, g.version, u.logStart, m-u.n)
		}
	}
	return nil
}

// TestParityOnFirstReadMatchesEager: on a fresh transmitter, four
// readers read every parity slot of a full cycle of every channel
// through ReadRunAt at once, in shuffled runs that cut tails and start
// on members, so first reads of one unit race; each read equals the
// eager encoder's frame byte for byte. The beds: the massive testbed's
// coded arm (XOR, one channel), the wire_lossy shape (four shard
// channels, objects RS 4×2, tables 1×2), and an XOR→RS code swap
// staged by StageFEC, read over the last old cycle and the first new
// one of every channel, and across every channel's seam.
func TestParityOnFirstReadMatchesEager(t *testing.T) {
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
			oracle := map[*generation][][]byte{a.cur: eagerParity(t, a.cur)}
			if a.next != nil {
				oracle[a.next] = eagerParity(t, a.next)
			}
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
					for _, s := range runs {
						if errs[w] = checkParityRun(tx, oracle, s, dst); errs[w] != nil {
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
			for g := range oracle {
				for ch := range g.parity {
					if !bytes.Equal(g.parity[ch].buf, oracle[g][ch]) {
						t.Fatalf("version %d channel %d: the arena differs from the eager encoder's after a full cycle", g.version, ch)
					}
				}
			}
		})
	}
}

// readyUnits counts the units of g whose parity frames are final, and
// the units that have a parity tail at all.
func readyUnits(g *generation) (ready, coded int) {
	for ch := range g.parity {
		c := &g.fec.chs[ch]
		for ui := range c.units() {
			if g.fec.code(c.unit(ui).table).Tail() == 0 {
				continue
			}
			coded++
			if g.parity[ch].isReady(ui) {
				ready++
			}
		}
	}
	return ready, coded
}

// TestStagedGenerationEncodesNothing: StageFEC builds the staged
// generation without encoding a parity frame. Reading the whole last old
// cycle of every channel encodes the old generation's units and none of
// the staged one's; a run past a channel's seam encodes the staged units
// it reaches, and the first new cycle all of them.
func TestStagedGenerationEncodesNothing(t *testing.T) {
	_, x, lay0 := wireTestBed(t, 300, 557, quarterBounds)
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
	if ready, _ := readyUnits(tx.air.Load().cur); ready != 0 {
		t.Fatalf("a fresh transmitter has %d units encoded", ready)
	}
	if _, err := tx.StageFEC(lay1, rsCode(), 0); err != nil {
		t.Fatal(err)
	}
	a := tx.air.Load()
	if ready, coded := readyUnits(a.next); ready != 0 || coded == 0 {
		t.Fatalf("after StageFEC %d of %d staged units are encoded, want 0 of some", ready, coded)
	}
	for ch := range a.cur.clocks {
		seam := a.next.clocks[ch].phase
		n := a.cur.clocks[ch].len
		tx.ReadRunAt(make([]Packet, n), nil, ch, seam-n)
	}
	if ready, coded := readyUnits(a.cur); ready != coded {
		t.Fatalf("after its last cycle %d of %d old units are encoded, want all", ready, coded)
	}
	if ready, _ := readyUnits(a.next); ready != 0 {
		t.Fatalf("reads before the seams encoded %d staged units", ready)
	}
	for ch := range a.next.clocks {
		// The run ends on the first unit's tail: it and only it is final.
		c := &a.next.fec.chs[ch]
		u := c.unit(0)
		tx.ReadRunAt(make([]Packet, u.n+1), nil, ch, a.next.clocks[ch].phase)
		for ui := range c.units() {
			if got := a.next.parity[ch].isReady(ui); got != (ui == 0) {
				t.Fatalf("channel %d unit %d: ready %v after a run through unit 0's tail", ch, ui, got)
			}
		}
	}
	for ch := range a.next.clocks {
		tx.ReadRunAt(make([]Packet, a.next.clocks[ch].len), nil, ch, a.next.clocks[ch].phase)
	}
	if ready, coded := readyUnits(a.next); ready != coded {
		t.Fatalf("after its first cycle %d of %d staged units are encoded, want all", ready, coded)
	}
}

// unready clears every ready bit of g, so the next read of each unit
// encodes it again (into the same bytes).
func unready(g *generation) {
	for ch := range g.parity {
		for w := range g.parity[ch].ready {
			g.parity[ch].ready[w].Store(0)
		}
	}
}

// TestParityFirstReadAllocatesNothing: once a channel's arena has
// encoded one unit, and so holds its scratch, encoding every other unit
// of the channel on its first read allocates nothing.
func TestParityFirstReadAllocatesNothing(t *testing.T) {
	bed := wireLossyBed(t)
	tx, err := NewMultiTransmitterFEC(bed.lay, bed.cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := tx.air.Load().cur
	dst := make([]Packet, 64)
	var runs []span
	for ch := range g.fec.chs {
		for ui := range g.fec.chs[ch].units() {
			u := g.fec.chs[ch].unit(ui)
			runs = append(runs, span{ch, int64(u.physStart + u.n), g.fec.code(u.table).Tail()})
		}
	}
	for _, s := range runs {
		tx.ReadRunAt(dst[:s.n], nil, s.ch, s.abs) // every arena's scratch
	}
	if ready, coded := readyUnits(g); ready != coded {
		t.Fatalf("%d of %d units encoded after reading every tail", ready, coded)
	}
	unready(g)
	use := ownHeap(func() {
		for _, s := range runs {
			tx.ReadRunAt(dst[:s.n], nil, s.ch, s.abs)
		}
	})
	if ready, coded := readyUnits(g); ready != coded {
		t.Fatalf("%d of %d units encoded again after reading every tail", ready, coded)
	}
	if use.allocs != 0 {
		t.Errorf("encoding %d units on first read made %d allocations, want none", len(runs), use.allocs)
	}
}
