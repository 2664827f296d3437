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
// split its parity tail).
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
		c := &g.chs[ch]
		logLen := lay.ChanLen(ch)
		prog := lay.Air.Channels[ch].Program
		c.log2phys = make([]int32, logLen)
		var slots []broadcast.Slot
		frames := 0 // parity frames of the units so far

		for s := 0; s < logLen; {
			u := fecUnit{logStart: s, physStart: len(slots), parity: int32(frames)}
			if pos, part, ok := lay.SlotTable(ch, s); ok {
				if part != 0 {
					return nil, fmt.Errorf("station: channel %d slot %d starts mid-table", ch, s)
				}
				u.table, u.pos, u.obj, u.n = true, pos, -1, x.TablePackets
			} else if pos, off, ok := lay.SlotData(ch, s); ok {
				if off%x.ObjPackets != 0 {
					return nil, fmt.Errorf("station: channel %d slot %d starts mid-object", ch, s)
				}
				u.pos, u.obj, u.n = pos, off/x.ObjPackets, x.ObjPackets
			} else {
				return nil, fmt.Errorf("station: channel %d slot %d is neither table nor data", ch, s)
			}
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
		c.physLen = len(slots)
		chans[ch] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity, Slots: slots}}
	}
	air, err := broadcast.NewAir(lay.Air.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	g.air = air
	return g, nil
}

// buildParity encodes every parity frame of one channel into one arena:
// frame f of the channel — the f-th in unit order, each unit's in tail
// order — at bytes [f*stride, (f+1)*stride), stride being
// wire.ParityHeaderSize + capacity. A unit's frames start at frame
// u.parity. logical fills a run of the channel's logical packets from
// a logical slot, appending the payload bytes it builds to the buffer
// it is handed (ReadRunAt's contract).
func buildParity(c *fecChan, cfg wire.FECConfig, capacity int, logical func(dst []Packet, b []byte, log int) []byte) []byte {
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

// unitCode is the code protecting a table unit or an object unit.
func unitCode(cfg wire.FECConfig, table bool) wire.FECCode {
	if table {
		return cfg.Table
	}
	return cfg.Object
}
