package experiment

import (
	"fmt"
	"sort"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/model"
	"dsi/internal/obs"
)

// Params configures an experiment run. Zero values take the paper's
// defaults: 10,000 uniform points, 1024-byte objects, WinSideRatio 0.1.
type Params struct {
	N           int   // dataset cardinality (default 10000; REAL uses 5848)
	Order       uint  // Hilbert curve order (default 8)
	Seed        int64 // dataset + workload seed (default 1)
	Queries     int   // queries averaged per data point (default 100)
	ObjectBytes int   // data object size (default 1024)
	Real        bool  // use the REAL-like clustered dataset
	Verify      bool  // cross-check every query against brute force
	// Obs, when set, collects operational counters from every layer the
	// run exercises (receivers, stations, planners). Nil — the default —
	// leaves every hot path uninstrumented.
	Obs *obs.Registry
}

func (p Params) withDefaults() Params {
	if p.N == 0 {
		if p.Real {
			p.N = 5848
		} else {
			p.N = 10000
		}
	}
	if p.Order == 0 {
		p.Order = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Queries == 0 {
		p.Queries = 100
	}
	if p.ObjectBytes == 0 {
		p.ObjectBytes = broadcast.ObjectBytes
	}
	return p
}

// Defaults returns p with every zero field set to the paper's default,
// as each experiment resolves it.
func (p Params) Defaults() Params { return p.withDefaults() }

// Dataset materializes the dataset the params describe.
func (p Params) Dataset() *dataset.Dataset {
	p = p.withDefaults()
	if p.Real {
		cfg := dataset.DefaultRealConfig(p.Seed)
		cfg.N = p.N
		cfg.Order = p.Order
		return dataset.Clustered(cfg)
	}
	return dataset.Uniform(p.N, p.Order, p.Seed)
}

func (p Params) workload(ds *dataset.Dataset) *Workload {
	return &Workload{DS: ds, Queries: p.Queries, Seed: p.Seed + 1000, Verify: p.Verify, Obs: p.Obs}
}

// The packet capacities the paper sweeps. DSI-only figures include 32
// bytes; three-index comparisons start at 64 (the R-tree cannot be
// built at 32, and the paper's figures omit that point).
var (
	CapacitiesAll   = []int{32, 64, 128, 256, 512}
	CapacitiesThree = []int{64, 128, 256, 512}
)

// DefaultWinSideRatio is the paper's default window side ratio.
const DefaultWinSideRatio = 0.1

// Fig8 reproduces Figure 8: broadcast reorganization on the UNIFORM
// dataset. (a,b) window-query latency/tuning of the original versus the
// two-segment reorganized broadcast; (c,d) 10NN latency/tuning of the
// original broadcast's conservative and aggressive strategies versus
// the reorganized broadcast.
func Fig8(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)

	mk := func(id, title, metric string) Figure {
		return Figure{ID: id, Title: title, XLabel: "capacity(B)", YLabel: metric, XFmt: "%.0f"}
	}
	figs := []Figure{
		mk("fig8a", "Broadcast reorganization: window-query access latency", "access latency (bytes)"),
		mk("fig8b", "Broadcast reorganization: window-query tuning time", "tuning time (bytes)"),
		mk("fig8c", "Broadcast reorganization: 10NN access latency", "access latency (bytes)"),
		mk("fig8d", "Broadcast reorganization: 10NN tuning time", "tuning time (bytes)"),
	}
	type point struct{ mo, mr, kc, ka, kr Metrics }
	pts := sweep(len(CapacitiesAll), func(i int) point {
		c := CapacitiesAll[i]
		orig := mustSys(NewDSI(ds, dsi.Config{Capacity: c}, dsi.Conservative, "Original"))
		agg := mustSys(NewDSI(ds, dsi.Config{Capacity: c}, dsi.Aggressive, "Aggressive"))
		reorg := mustSys(NewDSI(ds, dsi.Config{Capacity: c, Segments: 2}, dsi.Conservative, "Reorganized"))
		return point{
			mo: wl.RunWindow(orig, DefaultWinSideRatio),
			mr: wl.RunWindow(reorg, DefaultWinSideRatio),
			kc: wl.RunKNN(orig, 10),
			ka: wl.RunKNN(agg, 10),
			kr: wl.RunKNN(reorg, 10),
		}
	})
	for i, c := range CapacitiesAll {
		for f := range figs {
			figs[f].X = append(figs[f].X, float64(c))
		}
		pt := pts[i]
		figs[0].AddPoint("Original", pt.mo.LatencyBytes)
		figs[0].AddPoint("Reorganized", pt.mr.LatencyBytes)
		figs[1].AddPoint("Original", pt.mo.TuningBytes)
		figs[1].AddPoint("Reorganized", pt.mr.TuningBytes)
		figs[2].AddPoint("Conservative", pt.kc.LatencyBytes)
		figs[2].AddPoint("Aggressive", pt.ka.LatencyBytes)
		figs[2].AddPoint("Reorganized", pt.kr.LatencyBytes)
		figs[3].AddPoint("Conservative", pt.kc.TuningBytes)
		figs[3].AddPoint("Aggressive", pt.ka.TuningBytes)
		figs[3].AddPoint("Reorganized", pt.kr.TuningBytes)
	}
	return Result{Figures: figs}
}

// threeSystems builds DSI (reorganized, the configuration the paper
// uses after section 4.1), R-tree and HCI at the given capacity.
func threeSystems(ds *dataset.Dataset, capacity, objectBytes int) []System {
	return []System{
		mustSys(NewDSI(ds, dsi.Config{Capacity: capacity, Segments: 2, ObjectBytes: objectBytes}, dsi.Conservative, "DSI")),
		mustSys(NewRTree(ds, capacity, objectBytes)),
		mustSys(NewHCI(ds, capacity, objectBytes)),
	}
}

// Fig9 reproduces Figure 9: window-query performance of DSI, R-tree and
// HCI versus packet capacity (UNIFORM, WinSideRatio 0.1).
func Fig9(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	lat := Figure{ID: "fig9a", Title: "Window queries vs. packet capacity: access latency",
		XLabel: "capacity(B)", YLabel: "access latency (bytes)", XFmt: "%.0f"}
	tun := Figure{ID: "fig9b", Title: "Window queries vs. packet capacity: tuning time",
		XLabel: "capacity(B)", YLabel: "tuning time (bytes)", XFmt: "%.0f"}
	sweepPoints(&lat, &tun, xsOf(CapacitiesThree), func(i int) []namedMetrics {
		var out []namedMetrics
		for _, sys := range threeSystems(ds, CapacitiesThree[i], p.ObjectBytes) {
			out = append(out, namedMetrics{sys.Name(), wl.RunWindow(sys, DefaultWinSideRatio)})
		}
		return out
	})
	return Result{Figures: []Figure{lat, tun}}
}

// namedMetrics carries one system's metrics out of a parallel sweep.
type namedMetrics struct {
	name string
	m    Metrics
}

// sweepPoints computes one set of per-system metrics per X value on
// the worker pool and fills the latency/tuning figure pair in order.
func sweepPoints(lat, tun *Figure, xs []float64, point func(i int) []namedMetrics) {
	pts := sweep(len(xs), point)
	for i, x := range xs {
		lat.X = append(lat.X, x)
		tun.X = append(tun.X, x)
		for _, nm := range pts[i] {
			lat.AddPoint(nm.name, nm.m.LatencyBytes)
			tun.AddPoint(nm.name, nm.m.TuningBytes)
		}
	}
}

// xsOf converts sweep positions to figure X values.
func xsOf[T int | float64](vs []T) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// Fig10 reproduces Figure 10: window-query performance versus the
// window side ratio at 64-byte packets.
func Fig10(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	ratios := []float64{0.02, 0.05, 0.1, 0.15, 0.2}
	lat := Figure{ID: "fig10a", Title: "Window queries vs. WinSideRatio: access latency",
		XLabel: "WinSideRatio", YLabel: "access latency (bytes)"}
	tun := Figure{ID: "fig10b", Title: "Window queries vs. WinSideRatio: tuning time",
		XLabel: "WinSideRatio", YLabel: "tuning time (bytes)"}
	systems := threeSystems(ds, 64, p.ObjectBytes)
	sweepPoints(&lat, &tun, ratios, func(i int) []namedMetrics {
		var out []namedMetrics
		for _, sys := range systems {
			out = append(out, namedMetrics{sys.Name(), wl.RunWindow(sys, ratios[i])})
		}
		return out
	})
	return Result{Figures: []Figure{lat, tun}}
}

// Fig11 reproduces Figure 11: NN (k=1) and 10NN performance versus
// packet capacity.
func Fig11(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	mk := func(id, title, y string) Figure {
		return Figure{ID: id, Title: title, XLabel: "capacity(B)", YLabel: y, XFmt: "%.0f"}
	}
	figs := []Figure{
		mk("fig11a", "NN queries (k=1): access latency", "access latency (bytes)"),
		mk("fig11b", "NN queries (k=1): tuning time", "tuning time (bytes)"),
		mk("fig11c", "10NN queries: access latency", "access latency (bytes)"),
		mk("fig11d", "10NN queries: tuning time", "tuning time (bytes)"),
	}
	type sysPoint struct {
		name    string
		m1, m10 Metrics
	}
	pts := sweep(len(CapacitiesThree), func(i int) []sysPoint {
		var out []sysPoint
		for _, sys := range threeSystems(ds, CapacitiesThree[i], p.ObjectBytes) {
			out = append(out, sysPoint{
				name: sys.Name(),
				m1:   wl.RunKNN(sys, 1),
				m10:  wl.RunKNN(sys, 10),
			})
		}
		return out
	})
	for i, c := range CapacitiesThree {
		for f := range figs {
			figs[f].X = append(figs[f].X, float64(c))
		}
		for _, sp := range pts[i] {
			figs[0].AddPoint(sp.name, sp.m1.LatencyBytes)
			figs[1].AddPoint(sp.name, sp.m1.TuningBytes)
			figs[2].AddPoint(sp.name, sp.m10.LatencyBytes)
			figs[3].AddPoint(sp.name, sp.m10.TuningBytes)
		}
	}
	return Result{Figures: figs}
}

// Fig12 reproduces Figure 12: kNN performance versus k at 64-byte
// packets.
func Fig12(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	ks := []int{1, 3, 5, 10, 20, 30}
	lat := Figure{ID: "fig12a", Title: "kNN queries vs. k: access latency",
		XLabel: "k", YLabel: "access latency (bytes)", XFmt: "%.0f"}
	tun := Figure{ID: "fig12b", Title: "kNN queries vs. k: tuning time",
		XLabel: "k", YLabel: "tuning time (bytes)", XFmt: "%.0f"}
	systems := threeSystems(ds, 64, p.ObjectBytes)
	sweepPoints(&lat, &tun, xsOf(ks), func(i int) []namedMetrics {
		var out []namedMetrics
		for _, sys := range systems {
			out = append(out, namedMetrics{sys.Name(), wl.RunKNN(sys, ks[i])})
		}
		return out
	})
	return Result{Figures: []Figure{lat, tun}}
}

// Table1 reproduces Table 1: performance deterioration (percent,
// relative to the error-free run of the same index) under link-error
// ratios theta in {0.2, 0.5, 0.7}, for window queries (ratio 0.1) and
// 10NN queries, at 64-byte packets.
func Table1(p Params) Result {
	return table1Run(p, 0, "table1",
		"Performance deterioration in error-prone environments (UNIFORM)")
}

// Table1GEBurstLen is the mean burst length (packets) of the
// Gilbert-Elliott re-run of Table 1.
const Table1GEBurstLen = 8

// Table1GE re-runs Table 1 under the Gilbert-Elliott burst-error
// channel at the same stationary loss rates: losses arrive in runs of
// Table1GEBurstLen packets on average instead of independently, the
// channel model the bursty-fading literature argues is the realistic
// one.
func Table1GE(p Params) Result {
	return table1Run(p, Table1GEBurstLen, "table1ge",
		fmt.Sprintf("Deterioration under Gilbert-Elliott burst errors (mean burst %d packets, UNIFORM)",
			Table1GEBurstLen))
}

// table1Run is the shared Table 1 harness; burstLen 0 is the paper's
// i.i.d. error process.
func table1Run(p Params, burstLen float64, id, title string) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	thetas := []float64{0.2, 0.5, 0.7}

	t := Table{
		ID:    id,
		Title: title,
		Header: []string{"Index", "theta",
			"Win Latency", "Win Tuning", "10NN Latency", "10NN Tuning"},
	}
	// Order as in the paper: HCI, R-tree, DSI.
	systems := []System{
		mustSys(NewHCI(ds, 64, p.ObjectBytes)),
		mustSys(NewRTree(ds, 64, p.ObjectBytes)),
		mustSys(NewDSI(ds, dsi.Config{Capacity: 64, Segments: 2, ObjectBytes: p.ObjectBytes}, dsi.Conservative, "DSI")),
	}
	rows := sweep(len(systems), func(i int) [][]string {
		sys := systems[i]
		base := p.workload(ds)
		bw := base.RunWindow(sys, DefaultWinSideRatio)
		bk := base.RunKNN(sys, 10)
		var out [][]string
		for _, theta := range thetas {
			wl := p.workload(ds)
			wl.Theta = theta
			wl.BurstLen = burstLen
			w := wl.RunWindow(sys, DefaultWinSideRatio)
			k := wl.RunKNN(sys, 10)
			pct := func(now, was float64) string {
				return fmt.Sprintf("%.2f%%", (now-was)/was*100)
			}
			out = append(out, []string{
				sys.Name(), fmt.Sprintf("%.1f", theta),
				pct(w.LatencyBytes, bw.LatencyBytes),
				pct(w.TuningBytes, bw.TuningBytes),
				pct(k.LatencyBytes, bk.LatencyBytes),
				pct(k.TuningBytes, bk.TuningBytes),
			})
		}
		return out
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r...)
	}
	return Result{Tables: []Table{t}}
}

// RealDataset reproduces the REAL-dataset comparisons the paper reports
// in the text of sections 4.2 and 4.3: DSI's latency and tuning as a
// percentage of R-tree's and HCI's, for window and 10NN queries.
func RealDataset(p Params) Result {
	p.Real = true
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	systems := threeSystems(ds, 64, p.ObjectBytes)

	type pair struct{ win, knn Metrics }
	pts := sweep(len(systems), func(i int) pair {
		return pair{
			win: wl.RunWindow(systems[i], DefaultWinSideRatio),
			knn: wl.RunKNN(systems[i], 10),
		}
	})
	var win, knn []Metrics
	for _, pt := range pts {
		win = append(win, pt.win)
		knn = append(knn, pt.knn)
	}
	pct := func(dsiV, other float64) string { return fmt.Sprintf("%.1f%%", dsiV/other*100) }
	t := Table{
		ID:     "real",
		Title:  "REAL-like dataset: DSI cost as a fraction of each baseline (64B packets)",
		Header: []string{"Query", "Metric", "DSI/R-tree", "DSI/HCI"},
		Rows: [][]string{
			{"Window", "latency", pct(win[0].LatencyBytes, win[1].LatencyBytes), pct(win[0].LatencyBytes, win[2].LatencyBytes)},
			{"Window", "tuning", pct(win[0].TuningBytes, win[1].TuningBytes), pct(win[0].TuningBytes, win[2].TuningBytes)},
			{"10NN", "latency", pct(knn[0].LatencyBytes, knn[1].LatencyBytes), pct(knn[0].LatencyBytes, knn[2].LatencyBytes)},
			{"10NN", "tuning", pct(knn[0].TuningBytes, knn[1].TuningBytes), pct(knn[0].TuningBytes, knn[2].TuningBytes)},
		},
	}
	return Result{Tables: []Table{t}}
}

// AblationSizing compares the default auto frame sizing with the
// paper's literal one-packet-table sizing (DESIGN.md item 3).
func AblationSizing(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	lat := Figure{ID: "abl-sizing-lat", Title: "Frame sizing ablation: 10NN access latency",
		XLabel: "capacity(B)", YLabel: "access latency (bytes)", XFmt: "%.0f"}
	tun := Figure{ID: "abl-sizing-tun", Title: "Frame sizing ablation: 10NN tuning time",
		XLabel: "capacity(B)", YLabel: "tuning time (bytes)", XFmt: "%.0f"}
	// 32-byte packets cannot hold a one-packet paper table (own HC value
	// plus at least one 18-byte entry), so the sweep starts at 64.
	sweepPoints(&lat, &tun, xsOf(CapacitiesThree), func(i int) []namedMetrics {
		c := CapacitiesThree[i]
		auto := mustSys(NewDSI(ds, dsi.Config{Capacity: c, Segments: 2, ObjectBytes: p.ObjectBytes},
			dsi.Conservative, "Auto"))
		paper := mustSys(NewDSI(ds, dsi.Config{Capacity: c, Segments: 2, ObjectBytes: p.ObjectBytes,
			Sizing: dsi.SizingPaperTable}, dsi.Conservative, "PaperTable"))
		var out []namedMetrics
		for _, sys := range []System{auto, paper} {
			out = append(out, namedMetrics{sys.Name(), wl.RunKNN(sys, 10)})
		}
		return out
	})
	return Result{Figures: []Figure{lat, tun}}
}

// AblationReorgM sweeps the reorganization factor m (DESIGN.md).
func AblationReorgM(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	t := Table{
		ID:     "abl-m",
		Title:  "Reorganization factor m (64B packets, UNIFORM)",
		Header: []string{"m", "Win Latency", "Win Tuning", "10NN Latency", "10NN Tuning"},
	}
	ms := []int{1, 2, 4, 8}
	t.Rows = sweep(len(ms), func(i int) []string {
		m := ms[i]
		sys := mustSys(NewDSI(ds, dsi.Config{Capacity: 64, Segments: m, ObjectBytes: p.ObjectBytes},
			dsi.Conservative, fmt.Sprintf("m=%d", m)))
		w := wl.RunWindow(sys, DefaultWinSideRatio)
		k := wl.RunKNN(sys, 10)
		return []string{
			fmt.Sprintf("%d", m),
			humanBytes(w.LatencyBytes), humanBytes(w.TuningBytes),
			humanBytes(k.LatencyBytes), humanBytes(k.TuningBytes),
		}
	})
	return Result{Tables: []Table{t}}
}

// AblationIndexBase sweeps the index base r (DESIGN.md).
func AblationIndexBase(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	wl := p.workload(ds)
	t := Table{
		ID:     "abl-base",
		Title:  "Index base r (64B packets, UNIFORM, original broadcast)",
		Header: []string{"r", "Table bytes", "Win Latency", "Win Tuning", "10NN Latency", "10NN Tuning"},
	}
	rs := []int{2, 4, 8}
	t.Rows = sweep(len(rs), func(i int) []string {
		r := rs[i]
		x, err := dsi.Build(ds, dsi.Config{Capacity: 64, IndexBase: r, ObjectBytes: p.ObjectBytes,
			Sizing: dsi.SizingUnitFactor})
		if err != nil {
			panic(err)
		}
		sys := newSimSystem(fmt.Sprintf("r=%d", r), x.SingleLayout(), dsi.Conservative)
		w := wl.RunWindow(sys, DefaultWinSideRatio)
		k := wl.RunKNN(sys, 10)
		return []string{
			fmt.Sprintf("%d", r), fmt.Sprintf("%d", x.TableBytes()),
			humanBytes(w.LatencyBytes), humanBytes(w.TuningBytes),
			humanBytes(k.LatencyBytes), humanBytes(k.TuningBytes),
		}
	})
	return Result{Tables: []Table{t}}
}

// CostModel tabulates the analytic cost model of internal/model next to
// simulated point-query costs, per capacity: a consistency check
// between the implementation and the paper's analytical intuition that
// forwarding is "logically like a binary search".
func CostModel(p Params) Result {
	p = p.withDefaults()
	ds := p.Dataset()
	t := Table{
		ID:    "costmodel",
		Title: "DSI analytic cost model vs. simulation (point queries)",
		Header: []string{"capacity", "nF", "nO", "E", "r", "overhead",
			"model latency", "sim latency", "model tuning", "sim tuning"},
	}
	t.Rows = sweep(len(CapacitiesAll), func(ci int) []string {
		capacity := CapacitiesAll[ci]
		x, err := dsi.Build(ds, dsi.Config{Capacity: capacity, ObjectBytes: p.ObjectBytes})
		if err != nil {
			panic(err)
		}
		cost := model.AnalyzeDSI(x)
		// Each capacity draws from its own deterministic stream so the
		// sweep can run its data points in any order (or in parallel).
		rng := newWorkloadRNG(p.Seed + 7 + 1000*int64(ci))
		sess, err := dsi.Open(x)
		if err != nil {
			panic(err)
		}
		var lat, tun float64
		for i := 0; i < p.Queries; i++ {
			o := ds.Objects[rng.IntN(ds.N())]
			sess.Tune(rng.Int64N(int64(x.CycleSlots())), nil)
			_, _, st := sess.EEF(o.HC)
			lat += float64(st.LatencyBytes())
			tun += float64(st.TuningBytes())
		}
		q := float64(p.Queries)
		return []string{
			fmt.Sprintf("%d", capacity),
			fmt.Sprintf("%d", x.NF), fmt.Sprintf("%d", x.NO),
			fmt.Sprintf("%d", x.E), fmt.Sprintf("%d", x.Base),
			fmt.Sprintf("%.1f%%", cost.IndexOverhead*100),
			humanBytes(cost.ExpPointLatencyPackets * float64(capacity)),
			humanBytes(lat / q),
			humanBytes(cost.ExpPointTuningPackets * float64(capacity)),
			humanBytes(tun / q),
		}
	})
	return Result{Tables: []Table{t}}
}

// Registry maps experiment names to their functions, for the CLI.
var Registry = map[string]func(Params) Result{
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"table1":    Table1,
	"table1ge":  Table1GE,
	"real":      RealDataset,
	"sizing":    AblationSizing,
	"reorgm":    AblationReorgM,
	"base":      AblationIndexBase,
	"costmodel": CostModel,
	"channels":  Channels,
	"sharded":   Sharded,
	"chanloss":  ChanLoss,
	"drift":     Drift,
	"wireloss":  WireLoss,
	"fec":       FEC,
	"massive":   Massive,
}

// minObjects is the fewest objects each experiment's dataset can hold:
// its broadcasts need a frame for every segment, data channel, shard or
// stripe channel they cut the cycle into. The channel sweep stripes
// over 8 channels and reorgm cuts 8 segments; drift and sharded plan 7
// shards; the figures that sweep 32-byte packets pack several objects
// per frame and still cut 2 segments; the 4-channel split and shard
// layouts have 3 data channels. An experiment absent here runs on one
// object.
var minObjects = map[string]int{
	"channels": 8, "reorgm": 8,
	"drift": 7, "sharded": 7,
	"fig8": 7, "fig9": 7, "fig11": 7, "sizing": 7,
	"chanloss": 3, "massive": 3, "wireloss": 3,
	"fig10": 2, "fig12": 2, "real": 2, "table1": 2, "table1ge": 2,
}

// MinObjects returns the fewest objects a run of the named experiments
// can use, and the experiment that needs that many ("" when one object
// will do).
func MinObjects(names []string) (int, string) {
	n, by := 1, ""
	for _, name := range names {
		if m := minObjects[name]; m > n {
			n, by = m, name
		}
	}
	return n, by
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for name := range Registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
