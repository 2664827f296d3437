package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/massive"
	"dsi/internal/obs"
	"dsi/internal/spatial"
)

// TestDriftObsBitIdentical pins the observability bar for the drift
// harness: running the same cell with a live registry changes nothing
// in the result, and the registry comes back with the resync,
// seam-swap, and replan counters the drift question needs.
func TestDriftObsBitIdentical(t *testing.T) {
	p := driftParams
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		t.Fatal(err)
	}

	cell := func(p Params) driftPoint {
		return driftCell(newDriftBase(x, p.workload(ds), 4), p.workload(ds), DriftRatios[0])
	}
	bare := cell(p)

	reg := obs.NewRegistry()
	p.Obs = reg
	inst := cell(p)

	if !reflect.DeepEqual(bare, inst) {
		t.Fatalf("instrumented drift cell diverges:\nbare: %+v\ninst: %+v", bare, inst)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"dsi_receiver_resyncs_total",
		"station_seam_swaps_staged_total",
		"sched_replans_triggered_total",
		"sched_replan_checks_total",
	} {
		if reg.Sum(name) == 0 {
			t.Errorf("drift cell left %s at zero; snapshot: %v", name, snap)
		}
	}
}

// TestFECObsBitIdentical does the same for the coded arm: identical
// query outcomes with and without a registry, and nonzero FEC recovery
// counters after a lossy sweep.
func TestFECObsBitIdentical(t *testing.T) {
	p := driftParams.withDefaults()
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := massive.LightCode(x)
	reg := obs.NewRegistry()
	bare := newFECSystem("bare", x, cfg, nil)
	inst := newFECSystem("inst", x, cfg, reg)

	side := ds.Curve.Side()
	cycle := int64(bare.CycleLen())
	bs, is := bare.Acquire(), inst.Acquire()
	for i := 0; i < 10; i++ {
		w := spatial.ClampedWindow(uint32((i*97)%int(side)), uint32((i*31)%int(side)), 40, side)
		probe := (int64(i) * 1201) % cycle
		mkLoss := func(seed int64) *broadcast.LossModel {
			m := broadcast.GilbertForTheta(0.3, FECBurstLen, seed)
			m.AffectsData = true
			return m
		}
		bids, bst := bs.Window(w, probe, mkLoss(int64(i)))
		iids, ist := is.Window(w, probe, mkLoss(int64(i)))
		if fmt.Sprint(bids) != fmt.Sprint(iids) || bst != ist {
			t.Fatalf("query %d diverges under instrumentation:\nbare: %+v %v\ninst: %+v %v",
				i, bst, bids, ist, iids)
		}
	}
	if reg.Sum("station_fec_recovered_packets_total") == 0 {
		t.Errorf("lossy coded sweep recovered nothing; snapshot: %v", reg.Snapshot())
	}
	if reg.Sum("dsi_receiver_losses_total") == 0 {
		t.Errorf("lossy coded sweep counted no losses; snapshot: %v", reg.Snapshot())
	}
}
