package station

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
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
