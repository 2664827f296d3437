package experiment

import (
	"testing"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// TestFECBeatsRetryUnderBurst is the acceptance regression of the
// erasure-coded broadcast: on the bursty Gilbert-Elliott channel at
// theta 0.85 (losses on every packet kind), the heavy Reed-Solomon arm
// must answer windows with strictly lower mean AND p95 access latency
// than the rebroadcast-wait retry baseline at matched aggregate
// bandwidth — with every result verified against brute force.
func TestFECBeatsRetryUnderBurst(t *testing.T) {
	p := Params{N: 400, Order: 8, Seed: 31, Queries: 16, Verify: true}
	x, arms := fecBed(p)
	ds := x.DS

	wl := p.workload(ds)
	wl.Theta = 0.85
	wl.BurstLen = FECBurstLen
	wl.LossData = true

	retry := wl.RunWindowDist(arms[0], DefaultWinSideRatio)
	heavy := wl.RunWindowDist(arms[2], DefaultWinSideRatio)

	if heavy.Mean.LatencyBytes >= retry.Mean.LatencyBytes {
		t.Errorf("mean latency: FEC heavy %.0fB not below retry %.0fB",
			heavy.Mean.LatencyBytes, retry.Mean.LatencyBytes)
	}
	if heavy.P95.LatencyBytes >= retry.P95.LatencyBytes {
		t.Errorf("p95 latency: FEC heavy %.0fB not below retry %.0fB",
			heavy.P95.LatencyBytes, retry.P95.LatencyBytes)
	}
}

// TestFECRate1MatchesWireReceiver pins the baseline arm to the plain
// byte-level receiver: the zero code's metrics must equal a
// station.WireReceiver system's to the bit.
func TestFECRate1MatchesWireReceiver(t *testing.T) {
	p := Params{N: 400, Order: 7, Seed: 37, Queries: 12, Verify: true}
	x, arms := fecBed(p)
	ds := x.DS
	base := arms[0]
	plain := newWireSystem("Wire", x.SingleLayout(), base.src, dsi.Conservative)

	for _, theta := range []float64{0, 0.3} {
		wl := p.workload(ds)
		wl.Theta = theta
		wl.BurstLen = FECBurstLen
		wl.LossData = true
		got := wl.RunWindow(base, DefaultWinSideRatio)
		want := wl.RunWindow(plain, DefaultWinSideRatio)
		if got != want {
			t.Errorf("theta=%v: rate-1 arm %v != wire receiver %v", theta, got, want)
		}
	}
}

// TestFECCodesValidate pins the sweep's code constructions to the wire
// layer's validation rules at the experiment's geometry.
func TestFECCodesValidate(t *testing.T) {
	p := Params{N: 400, Order: 7, Seed: 41, Queries: 1}
	x, arms := fecBed(p)
	for _, sys := range arms[1:] {
		if err := sys.cfg.Validate(x.TablePackets, x.ObjPackets); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
	light, heavy := arms[1], arms[2]
	if r := light.Rate(); r < 0.5 {
		t.Errorf("light code rate %.3f implausibly low", r)
	}
	worst := FECThetas[len(FECThetas)-1]
	if r := heavy.Rate(); r > 1-worst {
		t.Errorf("heavy code rate %.3f exceeds the capacity bound %.3f for theta %.2f",
			r, 1-worst, worst)
	}
	if zero := (wire.FECConfig{}); arms[0].cfg != zero {
		t.Errorf("baseline arm carries a code: %+v", arms[0].cfg)
	}
}

// TestFECExperimentRuns smoke-runs the registered experiment with
// verification on.
func TestFECExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("fec sweep is minutes-long at full size")
	}
	res := FEC(Params{N: 300, Order: 7, Seed: 43, Queries: 4, Verify: true})
	if len(res.Figures) != 6 {
		t.Fatalf("fec produced %d figures, want 6", len(res.Figures))
	}
	for i, f := range res.Figures {
		// fec-a..d sweep the three small-object arms; fec-e/f carry the
		// coded paper-size (1KB) arm plus the censored retry estimate.
		wantSeries := 3
		if i >= 4 {
			wantSeries = 2
		}
		if len(f.Series) != wantSeries {
			t.Fatalf("figure %s has %d series, want %d", f.ID, len(f.Series), wantSeries)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(FECThetas) {
				t.Fatalf("figure %s series %s has %d points, want %d", f.ID, s.Name, len(s.Y), len(FECThetas))
			}
		}
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 5 {
		t.Fatalf("fec code-rate table malformed: %+v", res.Tables)
	}
}

// TestFECBed1024PaperSizeCodedOnly pins the paper-size bed: 1024-byte
// objects, no uncoded retry arm (it would not terminate at the sweep's
// high thetas), and codes that validate at the 16-packet geometry.
func TestFECBed1024PaperSizeCodedOnly(t *testing.T) {
	p := Params{N: 300, Order: 7, Seed: 53, Queries: 1}.withDefaults()
	x, arms := fecBed1024(p)
	if x.Cfg.ObjectBytes != 1024 {
		t.Fatalf("paper-size bed has %d-byte objects, want 1024", x.Cfg.ObjectBytes)
	}
	if len(arms) != 1 {
		t.Fatalf("paper-size bed has %d arms, want the single heavy coded arm", len(arms))
	}
	for _, sys := range arms {
		if !sys.cfg.Enabled() {
			t.Fatalf("%s: paper-size bed must not carry an uncoded arm", sys.Name())
		}
		if err := sys.cfg.Validate(x.TablePackets, x.ObjPackets); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// BenchmarkFEC is the CI smoke benchmark of the fec sweep.
func BenchmarkFEC(b *testing.B) {
	// Instrumented run: the obs counter averages ride into the bench
	// artifact (units suffixed _total) next to the latency figures.
	reg := obs.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FEC(Params{N: 300, Order: 7, Seed: 47, Queries: 3, Verify: true, Obs: reg})
	}
	b.StopTimer()
	snap := reg.Snapshot()
	n := float64(b.N)
	b.ReportMetric(snap["station_fec_recovered_packets_total"]/n, "fec_recovered_total")
	b.ReportMetric(snap["station_fec_group_solves_total"]/n, "fec_solves_total")
	b.ReportMetric(snap["dsi_receiver_losses_total{channel=\"0\"}"]/n, "losses_total")
}
