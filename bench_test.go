// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one benchmark per paper artifact, each
// running the corresponding experiment from internal/experiment and
// reporting the headline metrics (average access latency and tuning
// time in bytes per query) as custom benchmark metrics.
//
// The benchmarks use a reduced query count per data point so that
// `go test -bench=.` finishes in minutes; `cmd/dsibench` runs the same
// experiments at full scale and prints the complete tables.
package bench

import (
	"math/rand"
	"strconv"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/experiment"
	"dsi/internal/massive"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// dsiConfig is the configuration the paper evaluates after section 4.1:
// the two-segment reorganized broadcast.
func dsiConfig(capacity int) dsi.Config {
	return dsi.Config{Capacity: capacity, Segments: 2}
}

// shortScale drops params to a smoke-test scale under -short so the
// whole suite finishes in seconds (CI runs it on every push).
func shortScale(p *experiment.Params) {
	if testing.Short() {
		p.N = 1000
		p.Order = 7
	}
}

// benchParams keeps benchmark iterations affordable while staying at
// the paper's dataset scale.
func benchParams() experiment.Params {
	p := experiment.Params{Queries: 5, Verify: true}
	shortScale(&p)
	if testing.Short() {
		p.Queries = 2
	}
	return p
}

// reportFigure publishes the final X point of every series as custom
// metrics, so `go test -bench` output carries the reproduced numbers.
func reportFigure(b *testing.B, f experiment.Figure) {
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.ReportMetric(s.Y[len(s.Y)-1], f.ID+"-"+s.Name+"-B")
	}
}

func runFigureBench(b *testing.B, fn func(experiment.Params) experiment.Result) {
	var res experiment.Result
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Seed = int64(i + 1) // vary the workload across iterations
		res = fn(p)
	}
	for _, f := range res.Figures {
		reportFigure(b, f)
	}
}

// BenchmarkFig8 regenerates Figure 8: broadcast reorganization
// (window and 10NN, original vs reorganized, conservative vs
// aggressive) across packet capacities 32-512.
func BenchmarkFig8(b *testing.B) { runFigureBench(b, experiment.Fig8) }

// BenchmarkFig9 regenerates Figure 9: window queries vs. packet
// capacity for DSI, R-tree and HCI.
func BenchmarkFig9(b *testing.B) { runFigureBench(b, experiment.Fig9) }

// BenchmarkFig10 regenerates Figure 10: window queries vs.
// WinSideRatio.
func BenchmarkFig10(b *testing.B) { runFigureBench(b, experiment.Fig10) }

// BenchmarkFig11 regenerates Figure 11: NN and 10NN queries vs. packet
// capacity.
func BenchmarkFig11(b *testing.B) { runFigureBench(b, experiment.Fig11) }

// BenchmarkFig12 regenerates Figure 12: kNN queries vs. k.
func BenchmarkFig12(b *testing.B) { runFigureBench(b, experiment.Fig12) }

// BenchmarkTable1 regenerates Table 1: performance deterioration under
// link errors (theta in {0.2, 0.5, 0.7}) for all three indexes.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Seed = int64(i + 1)
		experiment.Table1(p)
	}
}

// BenchmarkRealDataset regenerates the REAL-dataset comparisons the
// paper reports in the text of sections 4.2 and 4.3.
func BenchmarkRealDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Seed = int64(i + 1)
		experiment.RealDataset(p)
	}
}

// BenchmarkAblationSizing compares the default auto frame sizing with
// the paper's literal one-packet-table sizing (DESIGN.md item 3).
func BenchmarkAblationSizing(b *testing.B) { runFigureBench(b, experiment.AblationSizing) }

// BenchmarkAblationReorgM sweeps the reorganization factor m.
func BenchmarkAblationReorgM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Seed = int64(i + 1)
		experiment.AblationReorgM(p)
	}
}

// BenchmarkAblationIndexBase sweeps the index base r under the fixed
// full-coverage sizing.
func BenchmarkAblationIndexBase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Seed = int64(i + 1)
		experiment.AblationIndexBase(p)
	}
}

// BenchmarkQueryThroughput measures raw simulated queries per second on
// the paper's default configuration, per query type and capacity. The
// allocation metrics are part of the contract: steady-state queries
// must not allocate anything dataset-sized (the system's idle-session
// stack hands the same client knowledge bases to every iteration).
func BenchmarkQueryThroughput(b *testing.B) {
	p := experiment.Params{Queries: 1, Verify: false}
	shortScale(&p)
	ds := p.Dataset()
	for _, capacity := range []int{64, 512} {
		sys, err := experiment.NewDSI(ds, dsiConfig(capacity), 0, "")
		if err != nil {
			b.Fatal(err)
		}
		b.Run("window/C="+strconv.Itoa(capacity), func(b *testing.B) {
			b.ReportAllocs()
			wl := &experiment.Workload{DS: ds, Queries: 1, Seed: 1}
			for i := 0; i < b.N; i++ {
				wl.Seed = int64(i)
				wl.RunWindow(sys, experiment.DefaultWinSideRatio)
			}
		})
		b.Run("knn10/C="+strconv.Itoa(capacity), func(b *testing.B) {
			b.ReportAllocs()
			wl := &experiment.Workload{DS: ds, Queries: 1, Seed: 1}
			for i := 0; i < b.N; i++ {
				wl.Seed = int64(i)
				wl.RunKNN(sys, 10)
			}
		})
	}
}

// BenchmarkClientReuse isolates the zero-allocation client engine: the
// same query answered by a freshly opened session per iteration versus
// one long-lived session re-tuned between iterations. The reused
// variant must report zero dataset-sized bytes per query.
func BenchmarkClientReuse(b *testing.B) {
	p := experiment.Params{Queries: 1, Verify: false}
	shortScale(&p)
	ds := p.Dataset()
	x, err := dsi.Build(ds, dsiConfig(64))
	if err != nil {
		b.Fatal(err)
	}
	side := ds.Curve.Side()
	w := spatial.ClampedWindow(side/3, side/2, side/10, side)
	q := spatial.Point{X: side / 2, Y: side / 3}
	probe := func(i int) int64 { return int64((i * 7919) % x.CycleSlots()) }
	open := func(probe int64) *dsi.Session {
		s, err := dsi.Open(x)
		if err != nil {
			b.Fatal(err)
		}
		s.Tune(probe, nil)
		return s
	}

	b.Run("window/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(probe(i)).Window(w)
		}
	})
	b.Run("window/reused", func(b *testing.B) {
		b.ReportAllocs()
		s := open(0)
		var buf []int
		for i := 0; i < b.N; i++ {
			s.Tune(probe(i), nil)
			buf, _ = s.WindowAppend(buf[:0], w)
		}
	})
	b.Run("knn10/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(probe(i)).KNN(q, 10, dsi.Conservative)
		}
	})
	b.Run("knn10/reused", func(b *testing.B) {
		b.ReportAllocs()
		s := open(0)
		var buf []int
		for i := 0; i < b.N; i++ {
			s.Tune(probe(i), nil)
			buf, _ = s.KNNAppend(buf[:0], q, 10, dsi.Conservative)
		}
	})
}

// BenchmarkWindowSplitHop measures what one navigation hop costs the
// client, in ns, on the index/data split arm of the massive testbed
// (10 % windows, four channels): one iteration answers a fixed set of
// window queries on a warm session, and the hops they take — frame
// visits, counted once from the client's trace — divide the time. The
// split arm is where hops are most numerous (an index sweep reads one
// table per hop), so this is the number a change to the navigation
// moves first.
func BenchmarkWindowSplitHop(b *testing.B) {
	cfg := massive.BedConfig{Seed: 1}
	if testing.Short() {
		cfg.N = 1000
	}
	bed, err := massive.NewTestbed(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var lay *dsi.Layout
	for _, arm := range bed.Arms {
		if arm.Name == "split" {
			lay = arm.Lay
		}
	}
	s, err := dsi.Open(bed.X, dsi.WithLayout(lay))
	if err != nil {
		b.Fatal(err)
	}
	side := bed.DS.Curve.Side()
	rng := rand.New(rand.NewSource(1))
	type query struct {
		probe int64
		w     spatial.Rect
	}
	queries := make([]query, 50)
	for i := range queries {
		queries[i] = query{
			probe: rng.Int63n(int64(lay.ProbeCycle())),
			w:     spatial.ClampedWindow(uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side))), side/10, side),
		}
	}
	var buf []int
	run := func() {
		for _, q := range queries {
			s.Tune(q.probe, nil)
			buf, _ = s.WindowAppend(buf[:0], q.w)
		}
	}
	// Count the hops once, untimed: a hop is a maximal run of trace
	// events on one frame's table or on one frame's data.
	hops := 0
	last := [2]int{-1, -1}
	s.SetTracer(func(e dsi.Event) {
		if e.Op == dsi.OpProbe {
			last = [2]int{-1, -1}
			return
		}
		at := [2]int{e.Pos, 0}
		if e.Op == dsi.OpTableRead {
			at[1] = 1
		}
		if at != last {
			hops++
			last = at
		}
	})
	run()
	s.SetTracer(nil)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
	b.ReportMetric(float64(hops)/float64(len(queries)), "hops/query")
}

// BenchmarkPacketReadIntoBuffer reports what one slot costs a reader
// that brings its own buffer, in ns and allocations: one iteration sweeps
// a full cycle of every channel of an erasure-coded sharded broadcast
// through station.PacketSource's run read, one slot at a time — table,
// parity and data slots in air proportion. This is the read the network
// station's pacer and the image writer make once per slot, so a
// source that goes back to allocating per packet shows here first
// (internal/station's BenchmarkMultiTransmitterPacketAt has the other
// sources and PacketAt beside it).
func BenchmarkPacketReadIntoBuffer(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	x, err := dsi.Build(dataset.Uniform(n, 8, 1), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 3, 2 * x.NF / 3, x.NF},
	})
	if err != nil {
		b.Fatal(err)
	}
	tx, err := station.NewMultiTransmitterFEC(lay, wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 2},
		Object: wire.FECCode{Groups: 4, Parity: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	slots := 0
	for ch := 0; ch < lay.Channels(); ch++ {
		slots += tx.ChanSlots(ch)
	}
	buf := make([]byte, 0, x.Cfg.Capacity)
	var run [1]station.Packet
	sink := 0
	b.ReportAllocs()
	for b.Loop() {
		for ch := 0; ch < lay.Channels(); ch++ {
			for abs, end := int64(0), int64(tx.ChanSlots(ch)); abs < end; abs++ {
				tx.ReadRunAt(run[:], buf, ch, abs)
				sink += len(run[0].Payload)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
	if sink == 0 {
		b.Fatal("no payload bytes served")
	}
}
