package experiment

import (
	"math"
	"slices"
	"testing"

	"dsi/internal/wire"
)

// TestCensoredGeometricFit pins the estimator's arithmetic on
// hand-computed observation sets.
func TestCensoredGeometricFit(t *testing.T) {
	const cycle, capacity = 100, 64

	// Every query completes in its first cycle: p̂ = 1, both the mean
	// and the p95 collapse to the observed within-cycle mean.
	d := fitCensoredGeometric([]censorObs{
		{trials: 1, latency: 40, tuning: 10, complete: true},
		{trials: 1, latency: 60, tuning: 20, complete: true},
	}, cycle, capacity)
	if d.P != 1 || d.Completed != 2 || d.Queries != 2 {
		t.Fatalf("all-completed fit: %+v", d)
	}
	if d.Est.Mean.LatencyBytes != 50*capacity || d.Est.P95.LatencyBytes != 50*capacity {
		t.Fatalf("all-completed latency: %+v", d.Est)
	}
	if d.Est.Mean.TuningBytes != 15*capacity {
		t.Fatalf("all-completed tuning: %+v", d.Est)
	}

	// Mixed: completions after 1, 2, and 4 cycles (each 40 packets into
	// its final cycle) plus one query censored at 8 cycles. p̂ = 3/15,
	// mean = 40 + cycle·(1-p̂)/p̂ = 440, and the geometric 95th
	// percentile needs ceil(ln 0.05 / ln 0.8) = 14 trials → 1340.
	d = fitCensoredGeometric([]censorObs{
		{trials: 1, latency: 40, complete: true},
		{trials: 2, latency: 140, complete: true},
		{trials: 4, latency: 340, complete: true},
		{trials: 8},
	}, cycle, capacity)
	if d.Completed != 3 || math.Abs(d.P-0.2) > 1e-12 {
		t.Fatalf("mixed fit: %+v", d)
	}
	if got := d.Est.Mean.LatencyBytes; math.Abs(got-440*capacity) > 1e-6 {
		t.Fatalf("mixed mean latency %v, want %v", got, 440*capacity)
	}
	if got := d.Est.P95.LatencyBytes; math.Abs(got-1340*capacity) > 1e-6 {
		t.Fatalf("mixed p95 latency %v, want %v", got, 1340*capacity)
	}

	// Zero completions: the rule of three stands in, p̂ = 3/16, with a
	// full cycle as the offset stand-in.
	d = fitCensoredGeometric([]censorObs{{trials: 8}, {trials: 8}}, cycle, capacity)
	if d.Completed != 0 || math.Abs(d.P-3.0/16) > 1e-12 {
		t.Fatalf("censored-only fit: %+v", d)
	}
	p := 3.0 / 16
	want := (cycle + cycle*(1-p)/p) * capacity
	if got := d.Est.Mean.LatencyBytes; math.Abs(got-want) > 1e-6 {
		t.Fatalf("censored-only mean latency %v, want %v", got, want)
	}
}

// TestRunWindowCensoredLossless: on a clean channel every query
// completes inside the horizon (verified against brute force), and the
// fitted mean lands near the plain replay's.
func TestRunWindowCensoredLossless(t *testing.T) {
	p := Params{N: 400, Order: 7, Seed: 61, Queries: 8, Verify: true}
	x, arms := fecBed(p)
	retry := arms[0]
	wl := p.workload(x.DS)

	d := wl.RunWindowCensored(retry, DefaultWinSideRatio, 4)
	if d.Completed != d.Queries || d.Queries != p.Queries {
		t.Fatalf("lossless replay censored queries: %+v", d)
	}
	plain := wl.RunWindowDist(retry, DefaultWinSideRatio)
	if d.Est.Mean.LatencyBytes < plain.Mean.LatencyBytes/3 ||
		d.Est.Mean.LatencyBytes > plain.Mean.LatencyBytes*3 {
		t.Fatalf("lossless estimate %.0fB far from replay %.0fB",
			d.Est.Mean.LatencyBytes, plain.Mean.LatencyBytes)
	}
}

// TestRunWindowCensoredHighTheta: at the sweep's worst burst loss the
// 1KB retry arm censors queries instead of hanging, and the fit
// extrapolates well past a single cycle.
func TestRunWindowCensoredHighTheta(t *testing.T) {
	p := Params{N: 300, Order: 7, Seed: 53, Queries: 6}.withDefaults()
	x, _ := fecBed1024(p)
	retry := newFECSystem("Retry 1KB (censored est)", x, wire.FECConfig{}, nil)

	wl := p.workload(x.DS)
	wl.Theta = 0.85
	wl.BurstLen = FECBurstLen
	wl.LossData = true

	d := wl.RunWindowCensored(retry, DefaultWinSideRatio, 2)
	if d.Completed >= d.Queries {
		t.Fatalf("worst-theta replay completed everything: %+v", d)
	}
	cycleBytes := float64(retry.CycleLen() * x.Cfg.Capacity)
	if d.Est.Mean.LatencyBytes <= cycleBytes {
		t.Fatalf("estimate %.0fB does not extrapolate past one cycle (%.0fB)",
			d.Est.Mean.LatencyBytes, cycleBytes)
	}
	if d.Est.P95.LatencyBytes < d.Est.Mean.LatencyBytes {
		t.Fatalf("p95 %.0fB below mean %.0fB", d.Est.P95.LatencyBytes, d.Est.Mean.LatencyBytes)
	}
}

// TestRunWindowCensoredParallelDeterministic: the censored replay on
// the 1KB retry arm at the sweep's worst theta gives the same estimate
// sequentially and on four workers, though each worker's session
// carries on after every abandoned query. The workload is sized so that a
// few queries complete inside the horizon: their latencies carry the
// estimate, so any per-worker state leaking into a query shows.
func TestRunWindowCensoredParallelDeterministic(t *testing.T) {
	p := Params{N: 300, Order: 7, Seed: 53, Queries: 64, Verify: true}.withDefaults()
	x, _ := fecBed1024(p)
	retry := newFECSystem("Retry 1KB (censored est)", x, wire.FECConfig{}, nil)
	wl := p.workload(x.DS)
	wl.Theta = 0.85
	wl.BurstLen = FECBurstLen
	wl.LossData = true
	defer SetParallelism(Parallelism())

	SetParallelism(1)
	seq := wl.RunWindowCensored(retry, DefaultWinSideRatio, censorHorizonCycles)
	if seq.Completed == 0 || seq.Completed == seq.Queries {
		t.Fatalf("want both completed and censored queries: %+v", seq)
	}
	SetParallelism(4)
	if par := wl.RunWindowCensored(retry, DefaultWinSideRatio, censorHorizonCycles); par != seq {
		t.Fatalf("four workers %+v != sequential %+v", par, seq)
	}
}

// TestCensoredSessionReusableAfterAbort: a session whose query the
// horizon abandoned answers every later query with the ids and Stats a
// freshly minted session gets — Tune alone clears what the unwound
// query left behind, so the censored replay keeps its sessions. Mild
// loss under a one-cycle horizon abandons about half the queries, the
// sweep's worst loss under the replay's own horizon nearly all.
func TestCensoredSessionReusableAfterAbort(t *testing.T) {
	p := Params{N: 300, Order: 7, Seed: 53, Queries: 64}.withDefaults()
	x, _ := fecBed1024(p)
	retry := newFECSystem("Retry 1KB (censored est)", x, wire.FECConfig{}, nil)
	cycle := int64(retry.CycleLen())
	for _, tc := range []struct {
		theta   float64
		horizon int64
	}{{0.1, 1}, {0.85, censorHorizonCycles}} {
		wl := p.workload(x.DS)
		wl.Theta = tc.theta
		wl.BurstLen = FECBurstLen
		wl.LossData = true
		rx := retry.wireRx
		rx.reg, rx.horizon = nil, cycle*tc.horizon

		reused := rx.open(0, nil)
		aborts, afterAbort := 0, 0
		for i, q := range wl.genWindows(DefaultWinSideRatio) {
			want, wantSt, wantDone := wl.censoredWindow(rx.open(0, nil), q, cycle)
			got, gotSt, gotDone := wl.censoredWindow(reused, q, cycle)
			if gotDone != wantDone || gotSt != wantSt || !slices.Equal(got, want) {
				t.Fatalf("theta %v query %d on the reused session: done %v, %v, ids %v; fresh session: done %v, %v, ids %v",
					tc.theta, i, gotDone, gotSt, got, wantDone, wantSt, want)
			}
			if aborts > 0 && gotDone {
				afterAbort++
			}
			if !gotDone {
				aborts++
			}
		}
		if aborts == 0 || afterAbort == 0 {
			t.Fatalf("theta %v: %d aborts, %d queries completed after one; the workload shows nothing", tc.theta, aborts, afterAbort)
		}
		t.Logf("theta %v, horizon %d cycles: %d aborts, %d queries completed after the first", tc.theta, tc.horizon, aborts, afterAbort)
	}
}
