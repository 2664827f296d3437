// The fec experiment: erasure-coded broadcast against the
// rebroadcast-wait retry baseline, at matched aggregate bandwidth.
// Every arm transmits on the same single channel at the same bit rate;
// the coded arms spend part of that rate on parity tails (their cycles
// are physically longer), the retry arm spends all of it on content
// and pays for losses with whole extra cycles. The sweep runs the
// Gilbert-Elliott burst channel, loss on every packet kind, and
// reports the mean and the 95th-percentile access latency and tuning
// time — the tail is where in-stream recovery earns its overhead,
// because one unrecoverable packet costs the retry arm a full cycle.
//
// Code-rate choice follows the capacity bound: a unit of K content
// packets needs its K + R coded packets to carry K surviving ones, so
// the code rate K/(K+R) must stay below the channel's good fraction
// 1-theta, with slack for burst variance. The light XOR arm (rate
// ~0.8) is sized for the mild end of the sweep; the heavy
// Reed-Solomon arm is sized for the worst theta and wins there at the
// price of a much longer cycle everywhere else.

package experiment

import (
	"fmt"
	"math"

	"dsi/internal/dsi"
	"dsi/internal/massive"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// FECThetas is the Gilbert-Elliott stationary loss sweep of the fec
// experiment.
var FECThetas = []float64{0.3, 0.6, 0.85}

// FECBurstLen is the mean burst length (packets) of the fec
// experiment's loss process.
const FECBurstLen = 8

// fecObjectBytes pins the experiment's object size to 4 packets. The
// bound is the retry baseline, which needs a run of ObjPackets
// consecutive good slots per object: at the sweep's worst point the
// Gilbert-Elliott good runs average BurstLen*(1-theta)/theta ~ 1.4
// packets, so a 4-packet object succeeds every ~10^2 cycles while the
// default 16-packet object would take ~10^9 — the uncoded arm would
// never terminate. The coded arms are insensitive to the choice.
const fecObjectBytes = 256

// fecHeavyCode sizes a single-group Reed-Solomon code for the worst
// loss rate of the sweep: R grows until the expected survivors among
// K+R packets exceed K with a 50% margin (the burst channel's variance
// is far from binomial).
func fecHeavyCode(x *dsi.Index, theta float64) wire.FECConfig {
	size := func(k int) wire.FECCode {
		r := int(math.Ceil(1.5 * float64(k) * theta / (1 - theta)))
		if k+r > 255 {
			r = 255 - k
		}
		return wire.FECCode{Groups: 1, Parity: r}
	}
	return wire.FECConfig{Table: size(x.TablePackets), Object: size(x.ObjPackets)}
}

// fecArm is one arm of the fec experiment: the session-backed system
// running station.WireReceiver sessions, plus the coded air it runs over
// (what the rate table and the censored replay need). The zero code is
// exactly the retry baseline: a plain transmitter decoded by the plain
// byte-level receiver.
type fecArm struct {
	*DSISystem
	wireRx
}

// newFECSystem builds the coded single-channel transmitter and the
// system over it. Probe positions scale to the physical (parity-
// bearing) cycle.
func newFECSystem(label string, x *dsi.Index, cfg wire.FECConfig, reg *obs.Registry) *fecArm {
	lay := x.SingleLayout()
	tx, err := station.NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiment: coded transmitter: %v", err))
	}
	if reg != nil {
		tx.SetObs(obs.NewStationMetrics(reg, 1))
	}
	rx := wireRx{lay: lay, src: tx, cfg: cfg, reg: reg}
	return &fecArm{wireRx: rx, DSISystem: &DSISystem{Label: label, cycle: tx.ChanSlots(0),
		mint: func() *sessionAdapter { return rx.open(0, nil) }}}
}

// Rate returns the code rate: the fraction of the physical cycle
// carrying content.
func (s *fecArm) Rate() float64 { return float64(s.lay.ProbeCycle()) / float64(s.cycle) }

// fecBed assembles the experiment's arms over one index: the retry
// baseline (rate 1), the light XOR code, and the heavy Reed-Solomon
// code sized for the sweep's worst theta.
func fecBed(p Params) (x *dsi.Index, arms []*fecArm) {
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: fecObjectBytes})
	if err != nil {
		panic(err)
	}
	worst := FECThetas[len(FECThetas)-1]
	arms = []*fecArm{
		newFECSystem("Retry", x, wire.FECConfig{}, p.Obs),
		newFECSystem("FEC light", x, massive.LightCode(x), p.Obs),
		newFECSystem("FEC heavy", x, fecHeavyCode(x, worst), p.Obs),
	}
	return x, arms
}

// fecBed1024 assembles the coded-only arm at the paper-default
// 1024-byte object size. The retry baseline is deliberately absent —
// a 16-packet object needs 16 consecutive good slots, which at the
// sweep's high thetas arrives roughly never (see fecObjectBytes) —
// and so is the light code, whose rate ~0.8 sits just as hopelessly
// above the worst theta's capacity bound 1-theta. Only the heavy
// Reed-Solomon code, sized for the worst theta, terminates across the
// full sweep at paper-size objects. FEC puts the retry baseline back
// onto the 1KB figures anyway — as a horizon-bounded censored
// estimate (censor.go), not a replay arm.
func fecBed1024(p Params) (x *dsi.Index, arms []*fecArm) {
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		panic(err)
	}
	worst := FECThetas[len(FECThetas)-1]
	arms = []*fecArm{
		newFECSystem("FEC heavy 1KB", x, fecHeavyCode(x, worst), p.Obs),
	}
	return x, arms
}

// FEC sweeps code rate against Gilbert-Elliott burst loss and reports
// the window-query cost distribution of every arm, plus the code-rate
// table.
func FEC(p Params) Result {
	p = p.withDefaults()
	x, arms := fecBed(p)
	x1k, arms1k := fecBed1024(p)
	// The uncoded baseline cannot replay to completion at paper size
	// (see fecBed1024), but it can be estimated: a horizon-bounded
	// replay plus the censored-geometric fit puts it back on the 1KB
	// figures. Uninstrumented — abandoned queries' partial costs would
	// pollute the registry's replay counters.
	retry1k := newFECSystem("Retry 1KB (censored est)", x1k, wire.FECConfig{}, nil)
	ds := x.DS

	mk := func(id, title, y string) Figure {
		return Figure{ID: id, Title: title, XLabel: "loss rate theta", YLabel: y}
	}
	figs := []Figure{
		mk("fec-a", "Erasure-coded broadcast: mean window access latency", "access latency (bytes)"),
		mk("fec-b", "Erasure-coded broadcast: p95 window access latency", "p95 access latency (bytes)"),
		mk("fec-c", "Erasure-coded broadcast: mean window tuning time", "tuning time (bytes)"),
		mk("fec-d", "Erasure-coded broadcast: p95 window tuning time", "p95 tuning time (bytes)"),
		mk("fec-e", "Erasure-coded broadcast, 1KB objects: mean window access latency", "access latency (bytes)"),
		mk("fec-f", "Erasure-coded broadcast, 1KB objects: p95 window access latency", "p95 access latency (bytes)"),
	}
	type thetaPoint struct {
		small, paper []DistMetrics
		cens         CensoredDist
	}
	lossy := func(theta float64) *Workload {
		wl := p.workload(ds)
		wl.Theta = theta
		wl.BurstLen = FECBurstLen
		wl.LossData = true
		return wl
	}
	run := func(sys *fecArm, theta float64) DistMetrics {
		return lossy(theta).RunWindowDist(sys, DefaultWinSideRatio)
	}
	pts := sweep(len(FECThetas), func(i int) thetaPoint {
		var pt thetaPoint
		for _, sys := range arms {
			pt.small = append(pt.small, run(sys, FECThetas[i]))
		}
		for _, sys := range arms1k {
			pt.paper = append(pt.paper, run(sys, FECThetas[i]))
		}
		pt.cens = lossy(FECThetas[i]).RunWindowCensored(retry1k, DefaultWinSideRatio, censorHorizonCycles)
		return pt
	})
	for i, theta := range FECThetas {
		for f := range figs {
			figs[f].X = append(figs[f].X, theta)
		}
		for a, sys := range arms {
			d := pts[i].small[a]
			figs[0].AddPoint(sys.Name(), d.Mean.LatencyBytes)
			figs[1].AddPoint(sys.Name(), d.P95.LatencyBytes)
			figs[2].AddPoint(sys.Name(), d.Mean.TuningBytes)
			figs[3].AddPoint(sys.Name(), d.P95.TuningBytes)
		}
		for a, sys := range arms1k {
			d := pts[i].paper[a]
			figs[4].AddPoint(sys.Name(), d.Mean.LatencyBytes)
			figs[5].AddPoint(sys.Name(), d.P95.LatencyBytes)
		}
		figs[4].AddPoint(retry1k.Name(), pts[i].cens.Est.Mean.LatencyBytes)
		figs[5].AddPoint(retry1k.Name(), pts[i].cens.Est.P95.LatencyBytes)
	}

	t := Table{
		ID:     "fec-rates",
		Title:  "Code rates at matched aggregate bandwidth (64B packets)",
		Header: []string{"Arm", "Table code", "Object code", "Rate", "Cycle (slots)"},
	}
	codeStr := func(c wire.FECCode, k int) string {
		if !c.Enabled() {
			return "-"
		}
		return fmt.Sprintf("G=%d R=%d (K=%d)", c.Groups, c.Parity, k)
	}
	addRows := func(xr *dsi.Index, systems []*fecArm) {
		for _, sys := range systems {
			t.Rows = append(t.Rows, []string{
				sys.Name(),
				codeStr(sys.cfg.Table, xr.TablePackets),
				codeStr(sys.cfg.Object, xr.ObjPackets),
				fmt.Sprintf("%.3f", sys.Rate()),
				fmt.Sprintf("%d", sys.cycle),
			})
		}
	}
	addRows(x, arms)
	addRows(x1k, arms1k)
	addRows(x1k, []*fecArm{retry1k})
	return Result{Figures: figs, Tables: []Table{t}}
}
