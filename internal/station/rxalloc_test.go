package station

import (
	"fmt"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// TestUncodedReceiverCarriesNoSlotMaps pins what the zero code costs a
// receiver: nothing per slot. One type serves coded and uncoded
// streams, and the coded half's geometry (a physical air program, a
// byte a slot) must not ride along when there is no parity to map
// around — on the net_flood-shaped broadcast below (2000 objects, order
// 8, four shard channels, ~34k slots a cycle) that would be ~34 KB per
// receiver. The budget is what the separate plain receiver type
// allocated here (7 allocations, 544 bytes) plus the recovery half's
// idle fields in the struct.
func TestUncodedReceiverCarriesNoSlotMaps(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 1)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 1, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 3, 2 * x.NF / 3, x.NF},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	tx.DirectoryAt(0) // the transmitter caches its directory encoding on first use
	mint := func() {
		rx, err := NewWireReceiver(lay, 1, tx, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rx.geo != nil || rx.air != lay.Air {
			t.Fatal("uncoded receiver built its own slot geometry")
		}
	}
	const allocBudget, byteBudget = 7, 544 + 512
	mint() // warm
	use := ownHeap(mint)
	if use.allocs > allocBudget {
		t.Errorf("NewWireReceiver: %d allocations, budget %d", use.allocs, allocBudget)
	}
	got := use.bytes
	if got > byteBudget {
		t.Errorf("NewWireReceiver: %d bytes over a %d-slot cycle, budget %d", got, lay.ProbeCycle(), byteBudget)
	}
	t.Logf("NewWireReceiver: %d bytes, %d slots a cycle", got, lay.ProbeCycle())
}

// TestWireReceiverWarmReadAllocatesNothing pins where the byte path's
// zero now is: once a query has sized the receiver's scratch, receiving
// an object — header, then body — allocates nothing, over a coded stream
// (whose header read also copies into the group window) and over an
// uncoded one, and neither does receiving a table, in the classic format
// on the single-channel layout or in the multi-channel one on the
// sharded layout. The lossy arm repeats the coded reads over a source
// that loses one member of the object and one of the table, within the
// code distance: once warm, recovering the object, and recovering the
// table and storing it in the unit cache, allocate nothing either.
func TestWireReceiverWarmReadAllocatesNothing(t *testing.T) {
	ds, x, shard := wireTestBed(t, 300, 673, quarterBounds)
	for _, lay := range []*dsi.Layout{shard, x.SingleLayout()} {
		for _, cfg := range []wire.FECConfig{wireLossyCode, {}} {
			name := fmt.Sprintf("%d channels, code %+v", lay.Channels(), cfg)
			tx, err := NewMultiTransmitterFEC(lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := NewFECReceiver(lay, 1, tx, cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := dsi.Open(x, dsi.WithReceiver(rx))
			if err != nil {
				t.Fatal(err)
			}
			w := spatial.ClampedWindow(40, 40, 30, ds.Curve.Side())
			if got, _ := sess.Window(w); !equalIDs(got, ds.WindowBrute(w)) {
				t.Fatalf("%s: warm-up window answered wrong", name)
			}

			pos := x.NF / 2
			object, table := warmReads(t, name+", loss-free", rx, lay, pos, false)
			if n := testing.AllocsPerRun(50, object); n != 0 {
				t.Errorf("%s: a warm Header + Object allocates %.0f times, want 0", name, n)
			}
			if n := testing.AllocsPerRun(50, table); n != 0 {
				t.Errorf("%s: a warm Table read allocates %.0f times, want 0", name, n)
			}
			if cfg.Enabled() {
				warmRecoveryAllocatesNothing(t, name, lay, tx, cfg, pos)
			}
		}
	}
}

// warmReads returns the two reads the warm tests time, each at the next
// occurrence of its unit: the header of position pos's first object and
// then, from the slot after it as a session positions the radio, its
// body; and position pos's index table, from a cold unit cache when
// forget is set.
func warmReads(t *testing.T, name string, rx *WireReceiver, lay *dsi.Layout, pos int, forget bool) (object, table func()) {
	dataCh, dataSlot := lay.DataPlace(pos)
	object = func() {
		rx.Tune(dataCh)
		rx.DozeUntilPos(dataSlot)
		if _, ok := rx.Header(pos, 0); !ok {
			t.Fatalf("%s: header lost", name)
		}
		rx.DozeUntilPos((dataSlot + 1) % lay.ChanLen(dataCh))
		if !rx.Object(pos, 0, 1) {
			t.Fatalf("%s: object lost", name)
		}
	}
	tabCh, tabSlot := lay.TablePlace(pos)
	table = func() {
		if forget {
			rx.Forget()
		}
		rx.Tune(tabCh)
		rx.DozeUntilPos(tabSlot)
		if _, ok := rx.Table(pos); !ok {
			t.Fatalf("%s: table lost", name)
		}
	}
	return object, table
}

// warmRecoveryAllocatesNothing reads the first objects of cycle
// positions pos and pos+1 and position pos's table over tx with member 1
// of each of these units (member 0 of a one-packet table) lost on every
// cycle, and fails unless, once warm, every read recovers and allocates
// nothing. Alternating the objects keeps each out of the group window
// the other's recovery overwrites, and the table read forgets the unit
// cache first, so every timed read is a recovery — the table's a cache
// store too.
func warmRecoveryAllocatesNothing(t *testing.T, name string, lay *dsi.Layout, tx *MultiTransmitter, cfg wire.FECConfig, pos int) {
	t.Helper()
	src := &faultSource{PacketSource: tx}
	rx, err := NewFECReceiver(lay, 1, src, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type lostSlot struct{ ch, slot int }
	lostIn := func(u fecUnit, ch int) lostSlot { return lostSlot{ch, u.physStart + min(1, u.n-1)} }
	lost := []lostSlot{lostIn(rx.dataUnit(pos, 0)), lostIn(rx.dataUnit(pos+1, 0)), lostIn(rx.tableUnit(pos))}
	src.mutate = func(ch int, abs int64, p Packet) (Packet, bool) {
		rel := int(abs % int64(tx.ChanSlots(ch)))
		for _, l := range lost {
			if ch == l.ch && rel == l.slot {
				return Packet{}, true
			}
		}
		return p, false
	}
	name += ", one member lost"
	first, table := warmReads(t, name, rx, lay, pos, true)
	second, _ := warmReads(t, name, rx, lay, pos+1, true)
	objects := func() {
		first()
		second()
	}
	objects()
	table()
	recovered := rx.Recovered()
	if n := testing.AllocsPerRun(50, objects); n != 0 {
		t.Errorf("%s: a warm recovered Header + Object allocates %.0f times a pair, want 0", name, n)
	}
	if n := testing.AllocsPerRun(50, table); n != 0 {
		t.Errorf("%s: a warm recovered Table read allocates %.0f times, want 0", name, n)
	}
	if want := recovered + 3*51; rx.Recovered() != want || rx.CacheHits() != 0 {
		t.Fatalf("%s: %d members recovered and %d cache hits, want %d and 0: every timed read must recover",
			name, rx.Recovered(), rx.CacheHits(), want)
	}
}
