package experiment

import "dsi/internal/dsi"

// ChannelCounts is the channel sweep of the multi-channel experiment.
var ChannelCounts = []int{1, 2, 4, 8}

// DefaultSwitchSlots is the channel-switch cost the experiment charges,
// in packet slots.
const DefaultSwitchSlots = 2

// Channels reproduces the multi-channel follow-up the paper leaves as
// future work: window and 10NN cost versus the number of parallel
// channels, for the index/data split scheduler against naive
// round-robin frame striping, at 64-byte packets on the reorganized
// (m=2) broadcast. N=1 is the paper's single-channel DSI, so the
// leftmost point of every series reproduces the existing engine
// exactly.
//
// Expected shape: split latency falls monotonically with N (the data
// cycle shrinks by the data-channel count), and split kNN tuning
// collapses immediately (candidates are discovered from the fast
// index channel instead of data passes). The N=2 split point is the
// structurally weakest — one data channel keeps the data cycle almost
// full length, and an object whose table is read just after its own
// data slot passed costs a wrap that the single channel's inline
// tables never pay — so at some scales 10NN latency only breaks even
// there before the N>=4 wins. Stripe demonstrates why naive striping
// fails: adjacent frames air in parallel, which a one-radio client
// cannot exploit.
func Channels(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	mk := func(id, title, y string) Figure {
		return Figure{ID: id, Title: title, XLabel: "channels", YLabel: y, XFmt: "%.0f"}
	}
	figs := []Figure{
		mk("chan-a", "Multi-channel broadcast: window-query access latency", "access latency (bytes)"),
		mk("chan-b", "Multi-channel broadcast: window-query tuning time", "tuning time (bytes)"),
		mk("chan-c", "Multi-channel broadcast: 10NN access latency", "access latency (bytes)"),
		mk("chan-d", "Multi-channel broadcast: 10NN tuning time", "tuning time (bytes)"),
	}
	type point struct{ splitW, stripeW, splitK, stripeK Metrics }
	pts := sweep(len(ChannelCounts), func(i int) point {
		n := ChannelCounts[i]
		cfg := dsi.Config{Capacity: 64, Segments: 2, ObjectBytes: p.ObjectBytes}
		split := mustSys(NewMultiDSI(ds, cfg,
			dsi.MultiConfig{Channels: n, Scheduler: dsi.SchedSplit, SwitchSlots: DefaultSwitchSlots},
			dsi.Conservative, "Split"))
		stripe := mustSys(NewMultiDSI(ds, cfg,
			dsi.MultiConfig{Channels: n, Scheduler: dsi.SchedStripe, SwitchSlots: DefaultSwitchSlots},
			dsi.Conservative, "Stripe"))
		return point{
			splitW:  wl.RunWindow(split, DefaultWinSideRatio),
			stripeW: wl.RunWindow(stripe, DefaultWinSideRatio),
			splitK:  wl.RunKNN(split, 10),
			stripeK: wl.RunKNN(stripe, 10),
		}
	})
	for i, n := range ChannelCounts {
		for f := range figs {
			figs[f].X = append(figs[f].X, float64(n))
		}
		pt := pts[i]
		figs[0].AddPoint("Split", pt.splitW.LatencyBytes)
		figs[0].AddPoint("Stripe", pt.stripeW.LatencyBytes)
		figs[1].AddPoint("Split", pt.splitW.TuningBytes)
		figs[1].AddPoint("Stripe", pt.stripeW.TuningBytes)
		figs[2].AddPoint("Split", pt.splitK.LatencyBytes)
		figs[2].AddPoint("Stripe", pt.stripeK.LatencyBytes)
		figs[3].AddPoint("Split", pt.splitK.TuningBytes)
		figs[3].AddPoint("Stripe", pt.stripeK.TuningBytes)
	}
	return Result{Figures: figs}
}
