// Erasure-coded transmission: the encoder side of in-stream loss
// recovery. A coded broadcast protects each semantic unit a receiver
// reads contiguously — one frame's index table, one data object
// (padding objects included) — with a parity tail appended right after
// the unit in the physical stream. Unit members interleave across the
// code's groups (member i joins group i mod Groups, parity packets
// interleave the same way), so a loss burst shorter than the group
// count lands on distinct groups and each sees at most one erasure.
//
// The physical cycle is therefore the logical cycle with G*R parity
// slots spliced in after every unit. Units tile each channel's logical
// cycle exactly, so physical cycle boundaries coincide with logical
// ones and the producer's seam arithmetic carries over verbatim with
// physical channel lengths — a staged layout re-encodes its parity at
// the seam like any other cycle boundary. With the zero FECConfig there
// are no parity slots and the physical and logical domains coincide.

package station

import (
	"fmt"
	"sync"
	"sync/atomic"
	"weak"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// fecUnit is one protected unit on one channel.
type fecUnit struct {
	logStart  int // first logical slot of the unit on its channel
	physStart int // first physical slot
	n         int // content packets
	table     bool
	parity    int32 // index of the unit's first frame in its channel's parity arena
	pos       int   // cycle position of the owning frame
	obj       int   // object index within the frame; -1 for table units
}

// fecChan is the physical geometry of one channel.
type fecChan struct {
	units    []fecUnit
	log2phys []int32 // logical slot -> physical slot
	logOf    []int32 // physical slot -> logical slot (parity maps to the next content slot)
	unitOf   []int32 // physical slot -> unit index
	physLen  int
}

// fecGeom is the full physical geometry of a coded layout: derived
// from the layout and the code alone, so transmitter and receiver
// compute identical geometries from catalog knowledge. It is never
// written after construction: one geometry per (layout, code) is shared
// read-only by the transmitter and every receiver in the process
// (sharedFECGeom).
type fecGeom struct {
	cfg wire.FECConfig
	lay *dsi.Layout
	chs []fecChan
	air *broadcast.Air // physical air the receiver's tuner runs on
}

func (g *fecGeom) code(table bool) wire.FECCode { return unitCode(g.cfg, table) }

// geomKey names one geometry: a layout, by identity, under a code. The
// layout is held weakly, so a key keeps nothing alive.
type geomKey struct {
	lay weak.Pointer[dsi.Layout]
	cfg wire.FECConfig
}

// geoms is the process's geometry cache. An entry holds its geometry
// weakly: a geometry lives exactly as long as a transmitter generation
// or a receiver holds it, and its layout as long as it does.
var geoms struct {
	sync.Mutex
	m map[geomKey]weak.Pointer[fecGeom]
}

// sharedFECGeom returns the geometry of lay under cfg, the one every
// holder in the process shares while any holds it; a miss builds it
// with newFECGeom. The build runs under the cache's lock, so receivers
// attaching at once build one geometry between them, and a miss first
// sweeps the entries whose geometries were collected.
func sharedFECGeom(lay *dsi.Layout, cfg wire.FECConfig) (*fecGeom, error) {
	key := geomKey{weak.Make(lay), cfg}
	geoms.Lock()
	defer geoms.Unlock()
	if g := geoms.m[key].Value(); g != nil {
		return g, nil
	}
	for k, w := range geoms.m {
		if w.Value() == nil {
			delete(geoms.m, k)
		}
	}
	g, err := newFECGeom(lay, cfg)
	if err != nil {
		return nil, err
	}
	if geoms.m == nil {
		geoms.m = make(map[geomKey]weak.Pointer[fecGeom])
	}
	geoms.m[key] = weak.Make(g)
	return g, nil
}

// newFECGeom derives the physical geometry of a layout under a code.
// Supported layouts are those with per-unit-contiguous channels: the
// classic single channel and the split/sharded multi-channel layouts
// (stripe channels can wrap a unit across the cycle seam, which would
// split its parity tail). A first pass over each channel counts its
// units and parity slots, so the unit list and the slot maps are each
// allocated once, at their final length.
func newFECGeom(lay *dsi.Layout, cfg wire.FECConfig) (*fecGeom, error) {
	x := lay.X
	if err := cfg.Validate(x.TablePackets, x.ObjPackets); err != nil {
		return nil, err
	}
	if lay.Channels() > 1 && lay.Sched != dsi.SchedSplit && lay.Sched != dsi.SchedShard {
		return nil, fmt.Errorf("station: FEC needs per-unit-contiguous channels; %v layouts are unsupported", lay.Sched)
	}
	g := &fecGeom{cfg: cfg, lay: lay, chs: make([]fecChan, lay.Channels())}
	chans := make([]*broadcast.Channel, lay.Channels())
	for ch := range g.chs {
		logLen := lay.ChanLen(ch)
		units, tails := 0, 0
		for s := 0; s < logLen; {
			u, err := unitAt(lay, ch, s)
			if err != nil {
				return nil, err
			}
			units++
			tails += g.code(u.table).Tail()
			s += u.n
		}

		c := &g.chs[ch]
		c.physLen = logLen + tails
		c.units = make([]fecUnit, 0, units)
		c.log2phys = make([]int32, logLen)
		c.logOf = make([]int32, 0, c.physLen)
		c.unitOf = make([]int32, 0, c.physLen)
		slots := make([]broadcast.Slot, 0, c.physLen)
		prog := lay.Air.Channels[ch].Program
		frames := 0 // parity frames of the units so far
		for s := 0; s < logLen; {
			u, _ := unitAt(lay, ch, s)
			u.physStart, u.parity = len(slots), int32(frames)
			code := g.code(u.table)
			ui := int32(len(c.units))
			kind := broadcast.KindData
			if u.table {
				kind = broadcast.KindIndex
			}
			for i := 0; i < u.n; i++ {
				c.log2phys[s+i] = int32(len(slots))
				c.logOf = append(c.logOf, int32(s+i))
				c.unitOf = append(c.unitOf, ui)
				slots = append(slots, prog.At(s+i))
			}
			nextLog := int32((s + u.n) % logLen)
			for t := 0; t < code.Tail(); t++ {
				// The parity tail interleaves like the members: row j of
				// group g sits at tail offset j*Groups+g, so consecutive
				// slots belong to distinct groups.
				c.logOf = append(c.logOf, nextLog)
				c.unitOf = append(c.unitOf, ui)
				slots = append(slots, broadcast.Slot{Kind: kind})
			}
			c.units = append(c.units, u)
			frames += code.Tail()
			s += u.n
		}
		chans[ch] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity, Slots: slots}}
	}
	air, err := broadcast.NewAir(lay.Air.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	g.air = air
	return g, nil
}

// unitAt is the unit starting at logical slot s of channel ch — a whole
// index table or a whole object — in logical terms: its physical start
// and parity frames are the geometry's to fill in.
func unitAt(lay *dsi.Layout, ch, s int) (fecUnit, error) {
	x := lay.X
	u := fecUnit{logStart: s}
	if pos, part, ok := lay.SlotTable(ch, s); ok {
		if part != 0 {
			return u, fmt.Errorf("station: channel %d slot %d starts mid-table", ch, s)
		}
		u.table, u.pos, u.obj, u.n = true, pos, -1, x.TablePackets
	} else if pos, off, ok := lay.SlotData(ch, s); ok {
		if off%x.ObjPackets != 0 {
			return u, fmt.Errorf("station: channel %d slot %d starts mid-object", ch, s)
		}
		u.pos, u.obj, u.n = pos, off/x.ObjPackets, x.ObjPackets
	} else {
		return u, fmt.Errorf("station: channel %d slot %d is neither table nor data", ch, s)
	}
	return u, nil
}

// parityArena is one channel's parity frames in one []byte, frame f —
// the f-th in unit order, each unit's in tail order — at bytes
// [f*stride, (f+1)*stride), stride being wire.ParityHeaderSize +
// capacity; a unit's frames start at frame u.parity. Nothing is encoded
// up front: a unit's frames are encoded the first time a reader reaches
// its tail (generation.ensure), and its ready bit, once set, says they
// are final and never written again.
type parityArena struct {
	buf   []byte
	ready []atomic.Uint64 // bit u%64 of word u/64: unit u's frames are final

	// mu serializes the encodes; it guards the scratch below, which the
	// first encode allocates for the widest unit, so later ones allocate
	// nothing.
	mu         sync.Mutex
	syms       []byte   // member symbols, capacity bytes each
	built      []byte   // payload bytes of the members' logical run
	pkts       []Packet // the members' logical run
	data, rows [][]byte // one group's member symbols and parity rows
}

// newParityArena is channel c's arena, nothing encoded yet.
func newParityArena(c *fecChan, capacity int) parityArena {
	frames := c.physLen - len(c.log2phys) // one frame per parity slot
	return parityArena{
		buf:   make([]byte, frames*(wire.ParityHeaderSize+capacity)),
		ready: make([]atomic.Uint64, (len(c.units)+63)/64),
	}
}

// isReady reports whether unit ui's frames are final.
func (a *parityArena) isReady(ui int32) bool { return a.ready[ui/64].Load()&(1<<(ui%64)) != 0 }

// ensure makes the parity frames of unit ui of channel ch final: a unit
// whose ready bit is clear is encoded under its channel's lock, checked
// again there, and its bit set after its bytes are written, so a reader
// that sees the bit set reads final bytes.
func (g *generation) ensure(ch int, ui int32) {
	a := &g.parity[ch]
	if a.isReady(ui) {
		return
	}
	a.mu.Lock()
	if !a.isReady(ui) {
		g.encode(ch, ui)
		a.ready[ui/64].Or(1 << (ui % 64))
	}
	a.mu.Unlock()
}

// encode writes the parity frames of unit ui of channel ch into the
// channel's arena: its members are filled as one logical run into the
// arena's scratch, zero-padded to symbols, and each group's rows are
// computed straight into their frames. The caller holds the arena's
// lock.
func (g *generation) encode(ch int, ui int32) {
	a, u, x := &g.parity[ch], &g.fec.chs[ch].units[ui], g.lay.X
	code := g.fec.code(u.table)
	capacity := x.Cfg.Capacity
	stride := wire.ParityHeaderSize + capacity
	if a.syms == nil {
		widest := max(x.TablePackets, x.ObjPackets)
		a.syms = make([]byte, widest*capacity)
		a.built = make([]byte, 0, widest*capacity)
		a.pkts = make([]Packet, widest)
		a.data = make([][]byte, 0, widest)
		a.rows = make([][]byte, 0, max(g.cfg.Table.Parity, g.cfg.Object.Parity))
	}
	// Member symbols: payloads zero-padded to capacity. Short and absent
	// payloads (table tails, padding objects) pad to all-zero symbols,
	// which the receiver reproduces from catalog geometry.
	syms := a.syms[:u.n*capacity]
	clear(syms)
	g.fillLogical(a.pkts[:u.n], a.built[:0], 0, ch, u.logStart)
	for i, p := range a.pkts[:u.n] {
		copy(syms[i*capacity:], p.Payload)
	}
	for grp := 0; grp < code.Groups; grp++ {
		members, k := code.GroupMembers(u.n, grp)
		a.data = a.data[:0]
		for i := grp; i < u.n; i += code.Groups {
			a.data = append(a.data, syms[i*capacity:(i+1)*capacity])
		}
		// Row j of the group is tail offset j*Groups+grp: its symbol is
		// computed straight into that frame's symbol bytes.
		a.rows = a.rows[:0]
		for j := 0; j < code.Parity; j++ {
			at := (int(u.parity) + j*code.Groups + grp) * stride
			a.rows = append(a.rows, a.buf[at+wire.ParityHeaderSize:at+stride])
		}
		wire.RSParityInto(a.rows, a.data)
		for j, sym := range a.rows {
			at := (int(u.parity) + j*code.Groups + grp) * stride
			wire.PutParity(a.buf[at:at+stride], wire.ParityHeader{
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

// unitCode is the code protecting a table unit or an object unit.
func unitCode(cfg wire.FECConfig, table bool) wire.FECCode {
	if table {
		return cfg.Table
	}
	return cfg.Object
}
