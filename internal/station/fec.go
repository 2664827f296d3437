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
	pos       int // cycle position of the owning frame
	obj       int // object index within the frame; -1 for table units
}

// fecChan is the physical geometry of one channel: its frame shape.
// Every channel a code protects repeats one frame — the frame's index
// table, its NO objects (padding objects included), or both — each unit
// followed by its parity tail, so a unit, the unit covering a slot and
// the maps between the two slot domains are arithmetic over these
// constants, and nothing is kept per slot.
type fecChan struct {
	table bool // whether the channel's frames carry their table
	pos0  int  // cycle position of the channel's first frame

	tp, op             int // table packets, object packets
	tableTail, objTail int // parity slots after a table unit, after an object unit

	perFrame            int // units per frame
	logFrame, physFrame int // slots per frame, without and with parity

	logLen, physLen int // slots per cycle, without and with parity
}

// units is the channel's unit count per cycle.
func (c *fecChan) units() int { return c.logLen / c.logFrame * c.perFrame }

// parityFrames is the channel's parity frame count per cycle.
func (c *fecChan) parityFrames() int { return c.physLen - c.logLen }

// unit is unit ui of the channel, units numbered in cycle order.
func (c *fecChan) unit(ui int) fecUnit {
	f := div(ui, c.perFrame)
	k, p := ui-f*c.perFrame, f*c.physFrame // unit k of frame f
	if c.table && k > 0 {
		k--
		p += c.tp + c.tableTail
	}
	_, u := c.covering(p + k*(c.op+c.objTail))
	return u
}

// covering is the index of the unit whose members or parity tail
// physical slot p carries, and the unit: in frame f, the frame's table
// first, when the channel carries tables, then its objects. It builds
// the unit itself, and unit goes through it, because fill calls it for
// every run: a unit returned through one more call cost the coded
// PacketAt about 30 ns a slot.
func (c *fecChan) covering(p int) (ui int, u fecUnit) {
	f := div(p, c.physFrame)
	r := p - f*c.physFrame
	ui = f * c.perFrame
	u = fecUnit{
		logStart:  f * c.logFrame,
		physStart: f * c.physFrame,
		pos:       c.pos0 + f,
		obj:       -1,
	}
	if c.table {
		if r < c.tp+c.tableTail {
			u.table, u.n = true, c.tp
			return ui, u
		}
		ui++
		r -= c.tp + c.tableTail
		u.logStart += c.tp
		u.physStart += c.tp + c.tableTail
	}
	k := div(r, c.op+c.objTail)
	ui += k
	u.logStart += k * c.op
	u.physStart += k * (c.op + c.objTail)
	u.n, u.obj = c.op, k
	return ui, u
}

// physSlot is the physical slot carrying logical slot l.
func (c *fecChan) physSlot(l int) int {
	f := div(l, c.logFrame)
	r, p := l-f*c.logFrame, f*c.physFrame
	if c.table {
		if r < c.tp {
			return p + r
		}
		r -= c.tp
		p += c.tp + c.tableTail
	}
	o := div(r, c.op)
	return p + o*(c.op+c.objTail) + r - o*c.op
}

// logSlot is the logical slot physical slot p carries; a parity slot
// maps to the next content slot, wrapping at the cycle end.
func (c *fecChan) logSlot(p int) int {
	f := div(p, c.physFrame)
	r, l := p-f*c.physFrame, f*c.logFrame
	if c.table && r < c.tp+c.tableTail {
		l += min(r, c.tp)
	} else {
		if c.table {
			l += c.tp
			r -= c.tp + c.tableTail
		}
		span := c.op + c.objTail
		o := div(r, span)
		l += o*c.op + min(r-o*span, c.op)
	}
	if l == c.logLen {
		return 0
	}
	return l
}

// div is n/d for the non-negative slot and unit counts of one cycle,
// which fit in 32 bits (a Packet's Slot is a uint32): a 32-bit division
// is the cheaper instruction, and the slot maps divide on every read.
func div(n, d int) int { return int(uint32(n) / uint32(d)) }

// fecGeom is the full physical geometry of a coded layout: derived
// from the layout and the code alone, so transmitter and receiver
// compute identical geometries from catalog knowledge. It is never
// written after construction: one geometry per (layout, code) is shared
// read-only by the transmitter and every receiver in the process
// (sharedFECGeom). Beside a few constants per channel it holds the
// physical air program, one byte per slot, which the tuner's loss
// draws step through.
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
// Supported layouts are those whose channels repeat one frame shape:
// the classic single channel (table and objects) and the split/sharded
// multi-channel layouts (tables on the index channel, objects on each
// data channel). Stripe channels can wrap a unit across the cycle
// seam, which would split its parity tail.
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
	split := lay.Channels() > 1 // tables on the index channel, objects on the others
	for ch := range g.chs {
		c := &g.chs[ch]
		*c = fecChan{
			table:     !split || ch == lay.StartCh,
			tp:        x.TablePackets,
			op:        x.ObjPackets,
			tableTail: cfg.Table.Tail(),
			objTail:   cfg.Object.Tail(),
			logLen:    lay.ChanLen(ch),
		}
		var first bool // the channel's slot 0 carries what its frames start with
		if c.table {
			c.perFrame++
			c.logFrame += c.tp
			c.physFrame += c.tp + c.tableTail
			c.pos0, _, first = lay.SlotTable(ch, 0)
		}
		if !split || ch != lay.StartCh {
			c.perFrame += x.NO
			c.logFrame += x.NO * c.op
			c.physFrame += x.NO * (c.op + c.objTail)
			if !c.table {
				c.pos0, _, first = lay.SlotData(ch, 0)
			}
		}
		if !first || c.logLen == 0 || c.logLen%c.logFrame != 0 {
			return nil, fmt.Errorf("station: channel %d is not a whole number of %d-slot frames", ch, c.logFrame)
		}
		c.physLen = c.logLen / c.logFrame * c.physFrame

		// The physical program: each unit's members as the layout airs
		// them, then its parity tail, of the unit's kind.
		slots := make([]broadcast.Slot, c.physLen)
		prog := lay.Air.Channels[ch].Program.Slots
		for ui := range c.units() {
			u := c.unit(ui)
			at := u.physStart + copy(slots[u.physStart:], prog[u.logStart:u.logStart+u.n])
			kind := broadcast.KindData
			if u.table {
				kind = broadcast.KindIndex
			}
			for i := range g.code(u.table).Tail() {
				slots[at+i] = broadcast.Slot{Kind: kind}
			}
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

// tailScratch is what one channel of a coded generation keeps for its
// parity: nothing per unit, only the scratch the last tail encode used,
// allocated by the first one for the widest unit and tail. Its frames
// hold that tail — frame t at t*stride, stride being
// wire.ParityHeaderSize + capacity — so consecutive reads of one tail
// in short runs (a pacer's single slots) encode it once. mu guards all
// of it.
type tailScratch struct {
	mu         sync.Mutex
	ui         int      // the unit whose tail frames holds, once frames is allocated
	frames     []byte   // that tail's frames
	syms       []byte   // member symbols that are not windows of a table: capacity bytes each
	data, rows [][]byte // one group's member symbols and parity rows
}

// parityRun fills dst with frames t, t+1, … of the parity tail of unit
// ui (u) of channel ch, framed from p, and returns b extended by them:
// the channel's scratch encodes the tail unless it holds it already,
// and the frames are copied out under its lock. They go after b's bytes
// in b's capacity; when that is short, into one fresh allocation sized
// for them and for the after slots of the run still to come, at a
// parity frame each.
func (g *generation) parityRun(dst []Packet, b []byte, after int, p Packet, ch, ui int, u fecUnit, t int) []byte {
	stride := g.slotBytes
	n := len(dst) * stride
	if cap(b)-len(b) < n {
		b = make([]byte, 0, n+after*stride)
	}
	at := len(b)
	b = b[:at+n]
	s := &g.tails[ch]
	s.mu.Lock()
	if s.frames == nil || s.ui != ui {
		g.encodeTail(s, u)
		s.ui = ui
	}
	copy(b[at:], s.frames[t*stride:])
	s.mu.Unlock()
	p.Flags = flagParity
	for j := range dst {
		lo := at + j*stride
		p.Payload = b[lo : lo+stride : lo+stride]
		dst[j] = p
		p.Slot++
	}
	return b
}

// encodeTail writes unit u's parity tail into s.frames, in tail order.
// The member symbols are the unit's payloads zero-padded to capacity,
// built without the logical run: a table unit's are windows of its
// pre-encoded table, an object unit's windows of the object built by
// one AppendObjectPart call into s.syms, and what is short of a whole
// symbol (a table's or an object's last part, a padding object) is
// padded in s.syms. Each group's rows are computed straight into their
// frames. The caller holds s.mu.
func (g *generation) encodeTail(s *tailScratch, u fecUnit) {
	x := g.lay.X
	capacity, stride := x.Cfg.Capacity, g.slotBytes
	code := g.fec.code(u.table)
	if s.frames == nil {
		widest := max(x.TablePackets, x.ObjPackets)
		s.frames = make([]byte, max(g.cfg.Table.Tail(), g.cfg.Object.Tail())*stride)
		s.syms = make([]byte, widest*capacity)
		s.data = make([][]byte, 0, widest)
		s.rows = make([][]byte, 0, max(g.cfg.Table.Parity, g.cfg.Object.Parity))
	}
	syms := s.syms[:u.n*capacity]
	var src []byte // the members' payloads end to end
	if u.table {
		src = g.tables[u.pos]
	} else if first, num := x.FrameObjects(x.PosToFrame(u.pos)); u.obj < num {
		obj := &x.DS.Objects[first+u.obj]
		src = AppendObjectPart(syms[:0], wire.ObjectHeader{X: obj.P.X, Y: obj.P.Y, HC: obj.HC}, obj.ID, x.Cfg.ObjectBytes, 0, x.Cfg.ObjectBytes)
	}
	// Short and absent payloads (table tails, padding objects) pad to
	// all-zero symbols, which the receiver reproduces from catalog
	// geometry.
	src = src[:min(len(src), len(syms))]
	whole := len(src) / capacity
	clear(syms[whole*capacity+copy(syms[whole*capacity:], src[whole*capacity:]):])
	for grp := 0; grp < code.Groups; grp++ {
		members, k := code.GroupMembers(u.n, grp)
		s.data = s.data[:0]
		for i := grp; i < u.n; i += code.Groups {
			from := syms
			if i < whole {
				from = src
			}
			s.data = append(s.data, from[i*capacity:(i+1)*capacity])
		}
		// Row j of the group is tail offset j*Groups+grp: its symbol is
		// computed straight into that frame's symbol bytes.
		s.rows = s.rows[:0]
		for j := 0; j < code.Parity; j++ {
			at := (j*code.Groups + grp) * stride
			s.rows = append(s.rows, s.frames[at+wire.ParityHeaderSize:at+stride])
		}
		wire.RSParityInto(s.rows, s.data)
		for j, sym := range s.rows {
			at := (j*code.Groups + grp) * stride
			wire.PutParity(s.frames[at:at+stride], wire.ParityHeader{
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
