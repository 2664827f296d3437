package model

import (
	"math"
	"math/rand"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

func TestCycleAccounting(t *testing.T) {
	ds := dataset.Uniform(500, 6, 1)
	for _, cfg := range []dsi.Config{{}, {Capacity: 512}, {Sizing: dsi.SizingUnitFactor}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := AnalyzeDSI(x)
		if on := x.SingleLayout().ChanLen(0); c.CyclePackets != on {
			t.Errorf("cfg %+v: cycle %d != %d slots on air", cfg, c.CyclePackets, on)
		}
		if c.CycleBytes != x.CycleBytes() {
			t.Errorf("cfg %+v: cycle bytes mismatch", cfg)
		}
		wantOverhead := float64(x.IndexOverheadBytes()) / float64(x.CycleBytes())
		if math.Abs(c.IndexOverhead-wantOverhead) > 1e-9 {
			t.Errorf("cfg %+v: overhead %v != %v", cfg, c.IndexOverhead, wantOverhead)
		}
	}
}

// measurePoint runs point queries for existing objects and returns the
// average latency and tuning in packets.
func measurePoint(x *dsi.Index, ds *dataset.Dataset, trials int, seed int64) (lat, tun float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		o := ds.Objects[rng.Intn(ds.N())]
		sess, err := dsi.Open(x)
		if err != nil {
			panic(err)
		}
		sess.Tune(rng.Int63n(int64(x.CycleSlots())), nil)
		_, _, st := sess.EEF(o.HC)
		lat += float64(st.LatencyPackets)
		tun += float64(st.TuningPackets)
	}
	return lat / float64(trials), tun / float64(trials)
}

func TestPointLatencyModelWithinTolerance(t *testing.T) {
	ds := dataset.Uniform(2000, 7, 3)
	for _, cfg := range []dsi.Config{{}, {Capacity: 256}, {Sizing: dsi.SizingUnitFactor}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := AnalyzeDSI(x)
		lat, _ := measurePoint(x, ds, 150, 7)
		if ratio := lat / c.ExpPointLatencyPackets; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("cfg %+v: measured latency %.0f vs model %.0f (ratio %.2f)",
				cfg, lat, c.ExpPointLatencyPackets, ratio)
		}
	}
}

func TestPointTuningModelWithinTolerance(t *testing.T) {
	// The tuning model captures forwarding cost; validate on the
	// full-coverage base-2 sizing where the digit-sum argument is
	// exact, and on the auto sizing (large base).
	ds := dataset.Uniform(2000, 7, 5)
	for _, cfg := range []dsi.Config{{Sizing: dsi.SizingUnitFactor}, {}} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := AnalyzeDSI(x)
		_, tun := measurePoint(x, ds, 150, 9)
		if ratio := tun / c.ExpPointTuningPackets; ratio < 0.4 || ratio > 2.5 {
			t.Errorf("cfg %+v: measured tuning %.1f vs model %.1f (ratio %.2f)",
				cfg, tun, c.ExpPointTuningPackets, ratio)
		}
	}
}

func TestExpDigitSum(t *testing.T) {
	// Base 2: digits are bits; expected bit count of a uniform value in
	// [0, 2^k) times 1/2.
	got := expDigitSum(1024, 2, 10)
	want := 10.0 / 2 // log2(1024) bits, each set with probability 1/2
	if math.Abs(got-want) > 0.1 {
		t.Errorf("expDigitSum(1024,2,10) = %v, want ~%v", got, want)
	}
	// Degenerate cases.
	if expDigitSum(1, 2, 4) != 0 {
		t.Error("single frame needs no forwarding")
	}
	// Truncated coverage costs more than complete coverage.
	if expDigitSum(1024, 2, 5) <= expDigitSum(1024, 2, 10) {
		t.Error("truncated coverage must cost extra hops")
	}
}

func TestExpDigitSumMatchesBruteForce(t *testing.T) {
	// Exact check: average digit sum over all distances in [0, nf).
	for _, tc := range []struct{ nf, r, e int }{{256, 2, 8}, {625, 5, 4}, {100, 10, 2}} {
		var sum float64
		for d := 0; d < tc.nf; d++ {
			v := d
			for v > 0 {
				sum += float64(v % tc.r)
				v /= tc.r
			}
		}
		brute := sum / float64(tc.nf)
		model := expDigitSum(tc.nf, tc.r, tc.e)
		if math.Abs(model-brute)/brute > 0.15 {
			t.Errorf("nf=%d r=%d: model %v vs brute %v", tc.nf, tc.r, model, brute)
		}
	}
}

func TestAnalyzeLayout(t *testing.T) {
	c := AnalyzeLayout(10000, 500, 20)
	if c.IndexOverhead != 0.05 {
		t.Errorf("overhead = %v", c.IndexOverhead)
	}
	if c.ProbeWaitPackets != 250 {
		t.Errorf("probe wait = %v", c.ProbeWaitPackets)
	}
}

func TestHeaderScanCost(t *testing.T) {
	ds := dataset.Uniform(500, 6, 11)
	x, err := dsi.Build(ds, dsi.Config{Sizing: dsi.SizingPaperTable, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if x.NO <= 1 {
		t.Skip("need multi-object frames")
	}
	if got := headerScanCost(x); got != float64(x.NO)/2 {
		t.Errorf("headerScanCost = %v", got)
	}
	x2, _ := dsi.Build(ds, dsi.Config{})
	if x2.NO == 1 && headerScanCost(x2) != 0 {
		t.Error("unit factor must have no scan cost")
	}
}
