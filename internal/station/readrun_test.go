package station_test

import (
	"testing"
	"unsafe"

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

// runLens are the run lengths the conformance checks read from every
// slot: the single slot, a pair, an object, and an object with its parity
// tail under seamCode.
func runLens(lay *dsi.Layout) []int {
	n := lay.X.ObjPackets
	return []int{1, 2, n, n + seamCode.Object.Tail()}
}

// TestReadRunAtMatchesPacketAt holds the station's own sources to the
// seam's run contract (stationtest.CheckRuns): a plain and a coded
// transmitter over one full cycle of every channel and a run across its
// end, and a transmitter from before a staged swap's global seam to a
// cycle past every channel's own — the stretch where one run serves the
// old generation and then the staged one, under two versions — and
// again once the swap is committed, the swap changing the code as well
// as the shard map. Channels and slots the broadcast does not carry
// read as lost slots.
func TestReadRunAtMatchesPacketAt(t *testing.T) {
	lay, next := seamBed(t)
	lens := runLens(lay)
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
			if err := stationtest.CheckRuns(tx, ch, 0, int64(tx.ChanSlots(ch)), lens...); err != nil {
				t.Fatalf("%s transmitter: %v", name, err)
			}
		}
		for _, c := range []struct {
			ch  int
			abs int64
		}{{lay.Channels(), 0}, {lay.Channels() + 7, 90}, {-1, 5}, {0, -40}, {2, -1 << 40}} {
			if err := stationtest.CheckLost(tx, c.ch, c.abs, 24); err != nil {
				t.Fatalf("%s transmitter: %v", name, err)
			}
		}
		// A run from before slot 0 into the cycle: lost, then on air.
		if err := stationtest.CheckRun(tx, 1, -5, 30, 30*64); err != nil {
			t.Fatalf("%s transmitter: %v", name, err)
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
			if err := stationtest.CheckRuns(rb, ch, swap-40, horizon, lens...); err != nil {
				t.Fatalf("transmitter, swap %s: %v", stage, err)
			}
		}
	}
	check("staged")
	// The check above held runs across every channel's seam; make sure
	// one of them did carry both versions.
	seam, _ := rb.SeamOf(1)
	run := make([]station.Packet, 4)
	rb.ReadRunAt(run, nil, 1, seam-2)
	if run[1].Ver != 1 || run[2].Ver != 2 {
		t.Fatalf("a run across channel 1's seam at %d reads versions %d, %d", seam, run[1].Ver, run[2].Ver)
	}
	if !rb.Commit(horizon) {
		t.Fatal("commit refused past every seam")
	}
	check("committed")
}

// TestPacketIs40Bytes pins the packet's size: the directory version
// rides in the padding after Flags, so carrying it costs a run nothing.
func TestPacketIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(station.Packet{}); n != 40 {
		t.Fatalf("a Packet is %d bytes, want 40", n)
	}
}

// FuzzReadRunAt throws arbitrary runs — channels and slots in and out of
// range, lengths up to 256 slots — and buffer capacities — negative for
// nil, short, exact, oversized — at the coded transmitter.
func FuzzReadRunAt(f *testing.F) {
	lay, _ := seamBed(f)
	tx, err := station.NewMultiTransmitterFEC(lay, seamCode)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, int64(0), 1, -1)
	f.Add(1, int64(17), 16, 0)
	f.Add(2, int64(1<<40), 24, 63)
	f.Add(3, int64(99), 2, 64)
	f.Add(1, int64(5000), 200, 4096)
	f.Add(4, int64(3), 5, 100)
	f.Add(-1, int64(-7), 12, 256)
	f.Add(2, int64(-3), 20, 1000)
	f.Fuzz(func(t *testing.T, ch int, abs int64, n, bufCap int) {
		if n < 0 || n > 256 || bufCap > 1<<16 || abs > 1<<62 || abs < -1<<62 {
			t.Skip()
		}
		if ch < 0 || ch >= lay.Channels() {
			if err := stationtest.CheckLost(tx, ch, abs, n); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := stationtest.CheckRun(tx, ch, abs, n, bufCap); err != nil {
			t.Fatal(err)
		}
	})
}
