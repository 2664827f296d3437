package experiment

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
)

// ChanLossThetas is the per-channel stationary loss sweep of the
// heterogeneous channel-quality experiment.
var ChanLossThetas = []float64{0.1, 0.2, 0.4}

// ChanLossChannels is the split layout's channel count.
const ChanLossChannels = 4

// chanLossScenario selects which channels of the split layout run the
// Gilbert-Elliott process.
type chanLossScenario struct {
	name string
	// lossy reports whether channel ch (0 = index) is error-prone.
	lossy func(ch int) bool
}

func chanLossScenarios() []chanLossScenario {
	return []chanLossScenario{
		{"index only", func(ch int) bool { return ch == 0 }},
		{"data only", func(ch int) bool { return ch != 0 }},
		{"all channels", func(ch int) bool { return true }},
	}
}

// chanLossRun replays the window workload through the simulator over
// the split layout with per-channel Gilbert-Elliott loss: one
// broadcast.PerChannel model per query. Each (query, channel) pair
// draws its own deterministic seed, so results are reproducible and
// independent of execution order.
func chanLossRun(lay *dsi.Layout, wl *Workload, theta float64, sc chanLossScenario) Metrics {
	sys := newSimSystem("chanloss", lay, dsi.Conservative)
	return meanOf(wl.windowStats(sys, wl.genWindows(DefaultWinSideRatio), func(_ *Workload, seed int64) *broadcast.LossModel {
		ms := make([]*broadcast.LossModel, lay.Channels())
		for ch := range ms {
			if theta > 0 && sc.lossy(ch) {
				m := broadcast.GilbertForTheta(theta, Table1GEBurstLen, seed+int64(ch))
				// Data channels of a split layout carry only object
				// packets; the loss process must corrupt them or the
				// channel would be error-free in practice.
				m.AffectsData = ch != lay.StartCh
				ms[ch] = m
			}
		}
		return broadcast.PerChannel(ms...)
	}))
}

// ChanLoss sweeps heterogeneous per-channel Gilbert-Elliott loss over a
// 4-channel split layout: the same stationary loss rate is applied to
// the index channel only, the data channels only, or every channel, and
// the table reports the latency and tuning deterioration relative to
// the error-free run.
//
// Expected shape: index-channel loss costs tuning (tables are re-read
// on their fast-recurring channel) but little latency; data-channel
// loss costs latency (a lost object packet waits a full data cycle for
// the retry); whole-air loss pays both.
func ChanLoss(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: p.ObjectBytes})
	if err != nil {
		panic(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: ChanLossChannels, Scheduler: dsi.SchedSplit, SwitchSlots: DefaultSwitchSlots})
	if err != nil {
		panic(err)
	}
	base := chanLossRun(lay, wl, 0, chanLossScenario{"clean", func(int) bool { return false }})

	t := Table{
		ID: "chanloss",
		Title: fmt.Sprintf("Heterogeneous channel quality (split x%d, Gilbert-Elliott mean burst %d)",
			ChanLossChannels, Table1GEBurstLen),
		Header: []string{"Lossy channels", "theta", "Latency", "Tuning", "dLatency", "dTuning"},
	}
	pct := func(now, was float64) string { return fmt.Sprintf("%+.2f%%", (now-was)/was*100) }
	for _, theta := range ChanLossThetas {
		for _, sc := range chanLossScenarios() {
			m := chanLossRun(lay, wl, theta, sc)
			t.Rows = append(t.Rows, []string{
				sc.name, fmt.Sprintf("%.1f", theta),
				humanBytes(m.LatencyBytes), humanBytes(m.TuningBytes),
				pct(m.LatencyBytes, base.LatencyBytes),
				pct(m.TuningBytes, base.TuningBytes),
			})
		}
	}
	return Result{Tables: []Table{t}}
}
