package station

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// TestUncodedReceiverCarriesNoSlotMaps pins what the zero code costs a
// receiver: nothing per slot. One type serves coded and uncoded
// streams, and the coded half's slot maps (four int32 per slot plus a
// physical air, ~28 B a slot) must not ride along when there is no
// parity to map around — on the net_flood-shaped broadcast below
// (2000 objects, order 8, four shard channels, ~34k slots a cycle) that
// would be ~1 MB per receiver. The budget is what the separate plain
// receiver type allocated here (7 allocations, 544 bytes) plus the
// recovery half's idle fields in the struct.
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(10, mint); got > allocBudget {
		t.Errorf("NewWireReceiver: %.0f allocations, budget %d", got, allocBudget)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mint()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
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
// sharded layout.
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
			dataCh, dataSlot := lay.DataPlace(pos)
			object := func() {
				rx.Tune(dataCh)
				rx.DozeUntilPos(dataSlot)
				if _, ok := rx.Header(pos, 0); !ok {
					t.Fatalf("%s: header lost on a loss-free air", name)
				}
				if !rx.Object(pos, 0, 1) {
					t.Fatalf("%s: object lost on a loss-free air", name)
				}
			}
			if n := testing.AllocsPerRun(50, object); n != 0 {
				t.Errorf("%s: a warm Header + Object allocates %.0f times, want 0", name, n)
			}
			tabCh, tabSlot := lay.TablePlace(pos)
			table := func() {
				rx.Tune(tabCh)
				rx.DozeUntilPos(tabSlot)
				if _, ok := rx.Table(pos); !ok {
					t.Fatalf("%s: table lost on a loss-free air", name)
				}
			}
			if n := testing.AllocsPerRun(50, table); n != 0 {
				t.Errorf("%s: a warm Table read allocates %.0f times, want 0", name, n)
			}
		}
	}
}
