package station_test

import (
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/station"
	"dsi/internal/station/stationtest"
	"dsi/internal/wire"
)

// seamCode is the wire_lossy workload's code: parity on both kinds of
// unit, so a coded cycle holds table, parity and data slots.
var seamCode = wire.FECConfig{
	Table:  wire.FECCode{Groups: 1, Parity: 2},
	Object: wire.FECCode{Groups: 4, Parity: 2},
}

// seamBed builds a four-channel sharded broadcast and a second layout of
// the same index to swap to.
func seamBed(t testing.TB) (lay, next *dsi.Layout) {
	t.Helper()
	x, err := dsi.Build(dataset.Uniform(200, 7, 641), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	shard := func(bounds ...int) *dsi.Layout {
		l, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	return shard(0, x.NF/4, x.NF/2, x.NF), shard(0, x.NF/8, 7*x.NF/8, x.NF)
}

// TestReadPacketAtMatchesPacketAt holds the station's own sources to the
// buffer contract (stationtest.CheckRead): a plain and a coded
// transmitter over one full cycle of every channel, and a transmitter
// from before a staged swap's global seam to a cycle past every
// channel's own — the stretch where one read serves the old generation
// and the next the staged one — and again once the swap is committed,
// the swap changing the code as well as the shard map.
func TestReadPacketAtMatchesPacketAt(t *testing.T) {
	lay, next := seamBed(t)
	plain, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := station.NewMultiTransmitterFEC(lay, seamCode)
	if err != nil {
		t.Fatal(err)
	}
	for name, tx := range map[string]*station.MultiTransmitter{"plain": plain, "coded": coded} {
		for ch := 0; ch < lay.Channels(); ch++ {
			if err := stationtest.CheckSlots(tx, ch, 0, int64(tx.ChanSlots(ch))); err != nil {
				t.Fatalf("%s transmitter: %v", name, err)
			}
		}
	}

	rb, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := rb.StageFEC(next, seamCode, 70)
	if err != nil {
		t.Fatal(err)
	}
	horizon := swap
	for ch := 0; ch < lay.Channels(); ch++ {
		seam, _ := rb.SeamOf(ch)
		horizon = max(horizon, seam+int64(coded.ChanSlots(ch)))
	}
	check := func(stage string) {
		for ch := 0; ch < lay.Channels(); ch++ {
			if err := stationtest.CheckSlots(rb, ch, swap-40, horizon); err != nil {
				t.Fatalf("transmitter, swap %s: %v", stage, err)
			}
		}
	}
	check("staged")
	if !rb.Commit(horizon) {
		t.Fatal("commit refused past every seam")
	}
	check("committed")
}

// FuzzReadPacketAt throws arbitrary slots and buffer capacities —
// negative for nil, short, exact, oversized — at the coded transmitter.
func FuzzReadPacketAt(f *testing.F) {
	lay, _ := seamBed(f)
	tx, err := station.NewMultiTransmitterFEC(lay, seamCode)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, int64(0), -1)
	f.Add(1, int64(17), 0)
	f.Add(2, int64(1<<40), 63)
	f.Add(3, int64(99), 64)
	f.Add(1, int64(5000), 4096)
	f.Fuzz(func(t *testing.T, ch int, abs int64, bufCap int) {
		if ch < 0 || abs < 0 || bufCap > 1<<16 {
			t.Skip()
		}
		if err := stationtest.CheckRead(tx, ch%lay.Channels(), abs, bufCap); err != nil {
			t.Fatal(err)
		}
	})
}
