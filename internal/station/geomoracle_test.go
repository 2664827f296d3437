package station

import (
	"fmt"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// The table-building geometry the station kept before a channel's
// geometry became arithmetic over its frame shape, kept verbatim as the
// oracle of the arithmetic one: four tables per channel, written out
// slot by slot from the layout's own placement.

// tableChan is the physical geometry of one channel.
type tableChan struct {
	units    []fecUnit
	log2phys []int32 // logical slot -> physical slot
	logOf    []int32 // physical slot -> logical slot (parity maps to the next content slot)
	unitOf   []int32 // physical slot -> unit index
	physLen  int
}

// tableGeom is the full physical geometry of a coded layout.
type tableGeom struct {
	cfg wire.FECConfig
	lay *dsi.Layout
	chs []tableChan
	air *broadcast.Air // physical air the receiver's tuner runs on
}

func (g *tableGeom) code(table bool) wire.FECCode { return unitCode(g.cfg, table) }

// newTableGeom derives the physical geometry of a layout under a code.
// Supported layouts are those with per-unit-contiguous channels: the
// classic single channel and the split/sharded multi-channel layouts
// (stripe channels can wrap a unit across the cycle seam, which would
// split its parity tail). A first pass over each channel counts its
// units and parity slots, so the unit list and the slot maps are each
// allocated once, at their final length.
func newTableGeom(lay *dsi.Layout, cfg wire.FECConfig) (*tableGeom, error) {
	x := lay.X
	if err := cfg.Validate(x.TablePackets, x.ObjPackets); err != nil {
		return nil, err
	}
	if lay.Channels() > 1 && lay.Sched != dsi.SchedSplit && lay.Sched != dsi.SchedShard {
		return nil, fmt.Errorf("station: FEC needs per-unit-contiguous channels; %v layouts are unsupported", lay.Sched)
	}
	g := &tableGeom{cfg: cfg, lay: lay, chs: make([]tableChan, lay.Channels())}
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
		for s := 0; s < logLen; {
			u, _ := unitAt(lay, ch, s)
			u.physStart = len(slots)
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
// is the geometry's to fill in.
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

// sameGeometry holds the arithmetic geometry g to the table-built
// oracle o of the same layout and code: every unit, every logical and
// physical slot of every channel, the channel's parity frame count and
// the physical air program.
func sameGeometry(g *fecGeom, o *tableGeom) error {
	if len(g.chs) != len(o.chs) {
		return fmt.Errorf("%d channels, oracle %d", len(g.chs), len(o.chs))
	}
	if g.air.SwitchSlots != o.air.SwitchSlots {
		return fmt.Errorf("switch cost %d, oracle %d", g.air.SwitchSlots, o.air.SwitchSlots)
	}
	coded := g.coded()
	for ch := range g.chs {
		c, oc := &g.chs[ch], &o.chs[ch]
		if c.physLen != oc.physLen || coded[ch].PhysLen != oc.physLen {
			return fmt.Errorf("ch%d: %d physical slots (exported %d), oracle %d", ch, c.physLen, coded[ch].PhysLen, oc.physLen)
		}
		if c.units() != len(oc.units) {
			return fmt.Errorf("ch%d: %d units, oracle %d", ch, c.units(), len(oc.units))
		}
		if want := oc.physLen - len(oc.log2phys); c.parityFrames() != want {
			return fmt.Errorf("ch%d: %d parity frames, oracle %d", ch, c.parityFrames(), want)
		}
		for ui, want := range oc.units {
			if got := c.unit(ui); got != want {
				return fmt.Errorf("ch%d unit %d: %+v, oracle %+v", ch, ui, got, want)
			}
		}
		for l, want := range oc.log2phys {
			if got := c.physSlot(l); got != int(want) || coded[ch].Log2Phys(l) != got {
				return fmt.Errorf("ch%d logical %d: physical %d (exported %d), oracle %d", ch, l, got, coded[ch].Log2Phys(l), want)
			}
		}
		slots, want := g.air.Channels[ch].Slots, o.air.Channels[ch].Slots
		if len(slots) != len(want) {
			return fmt.Errorf("ch%d: a %d-slot program, oracle %d", ch, len(slots), len(want))
		}
		for p := range oc.physLen {
			if ui, u := c.covering(p); ui != int(oc.unitOf[p]) || u != oc.units[ui] {
				return fmt.Errorf("ch%d physical %d: unit %d %+v, oracle %d", ch, p, ui, u, oc.unitOf[p])
			}
			if got := c.logSlot(p); got != int(oc.logOf[p]) || coded[ch].LogOf(p) != got {
				return fmt.Errorf("ch%d physical %d: logical %d (exported %d), oracle %d", ch, p, got, coded[ch].LogOf(p), oc.logOf[p])
			}
			if slots[p] != want[p] {
				return fmt.Errorf("ch%d physical %d: program slot %v, oracle %v", ch, p, slots[p], want[p])
			}
		}
	}
	return nil
}

// checkGeometry holds the geometry of lay under cfg to the oracle's.
func checkGeometry(t *testing.T, g *fecGeom) {
	t.Helper()
	o, err := newTableGeom(g.lay, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGeometry(g, o); err != nil {
		t.Fatal(err)
	}
}

// TestCodedGeometryMatchesTables: the arithmetic geometry equals the
// table-built one slot for slot on the massive testbed's coded arm (one
// channel, light XOR), the wire_lossy shape (four shard channels,
// objects RS 4×2, tables 1×2), a split layout, an index of several
// objects per frame whose last frame is partial (padding objects are
// units too), and both generations across a StageFEC code swap.
func TestCodedGeometryMatchesTables(t *testing.T) {
	geom := func(t *testing.T, lay *dsi.Layout, cfg wire.FECConfig) *fecGeom {
		g, err := newFECGeom(lay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t.Run("massive", func(t *testing.T) {
		bed := massiveCodedBed(t)
		checkGeometry(t, geom(t, bed.lay, bed.cfg))
	})
	t.Run("wire_lossy", func(t *testing.T) {
		bed := wireLossyBed(t)
		checkGeometry(t, geom(t, bed.lay, bed.cfg))
	})
	t.Run("split", func(t *testing.T) {
		_, x, _ := wireTestBed(t, 300, 557, quarterBounds)
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkGeometry(t, geom(t, lay, rsCode()))
	})
	t.Run("several-objects-per-frame", func(t *testing.T) {
		x, err := dsi.Build(dataset.Uniform(100, 7, 3), dsi.Config{Capacity: 64, ObjectBytes: 256, ReserveMCPtr: true})
		if err != nil {
			t.Fatal(err)
		}
		if x.NO < 2 || x.N%x.NO == 0 {
			t.Fatalf("%d objects in frames of %d: want several per frame and a partial last frame", x.N, x.NO)
		}
		split, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkGeometry(t, geom(t, x.SingleLayout(), xorCode()))
		checkGeometry(t, geom(t, x.SingleLayout(), rsCode()))
		checkGeometry(t, geom(t, split, rsCode()))
	})
	t.Run("swap", func(t *testing.T) {
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
		if _, err := tx.StageFEC(lay1, wireLossyCode, 0); err != nil {
			t.Fatal(err)
		}
		a := tx.air.Load()
		checkGeometry(t, a.cur.fec)
		checkGeometry(t, a.next.fec)
	})
}

// FuzzCodedGeometry holds the arithmetic geometry to the table-built
// one over random indexes (object count and size, so frames of one or
// several objects, the last one partial or not), layouts (classic,
// split, sharded; two to five channels) and codes (groups and parity
// rows of tables and objects; invalid codes must be refused by both).
func FuzzCodedGeometry(f *testing.F) {
	f.Add(uint16(300), uint16(1024), uint8(0), uint8(0), uint8(0x41), uint8(0x11))
	f.Add(uint16(100), uint16(256), uint8(1), uint8(1), uint8(0x21), uint8(0x32))
	f.Add(uint16(240), uint16(1024), uint8(2), uint8(2), uint8(0x41), uint8(0x22))
	f.Fuzz(func(t *testing.T, n, objBytes uint16, sched, channels, groups, parity uint8) {
		x, err := dsi.Build(dataset.Uniform(1+int(n%500), 7, int64(n)),
			dsi.Config{Capacity: 64, ObjectBytes: 16 + int(objBytes%2048), ReserveMCPtr: true})
		if err != nil {
			t.Skip(err)
		}
		mc := dsi.MultiConfig{Channels: 1, SwitchSlots: 2}
		if sched %= 3; sched != 0 {
			mc.Channels = 2 + int(channels%4)
			mc.Scheduler = []dsi.Scheduler{dsi.SchedSplit, dsi.SchedShard}[sched-1]
			if mc.Scheduler == dsi.SchedShard {
				for s := range mc.Channels {
					mc.ShardBounds = append(mc.ShardBounds, s*x.NF/(mc.Channels-1))
				}
			}
		}
		lay, err := dsi.NewLayout(x, mc)
		if err != nil {
			t.Skip(err)
		}
		cfg := wire.FECConfig{
			Table:  wire.FECCode{Groups: int(groups & 3), Parity: int(parity & 3)},
			Object: wire.FECCode{Groups: int(groups >> 4 & 7), Parity: int(parity >> 4 & 3)},
		}
		g, err := newFECGeom(lay, cfg)
		o, oerr := newTableGeom(lay, cfg)
		if (err != nil) != (oerr != nil) {
			t.Fatalf("%v under %+v: error %v, oracle %v", lay, cfg, err, oerr)
		}
		if err != nil {
			return
		}
		if err := sameGeometry(g, o); err != nil {
			t.Fatalf("%v under %+v: %v", lay, cfg, err)
		}
	})
}
