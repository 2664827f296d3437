// Workloads and the run that measures one: repeated set-up, a timed
// section with the seams bare for the end-to-end metrics, and — in the
// separate traced run — a section with the seam decorators on plus the
// per-layer kernels.

package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to readings.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// merge copies every reading of o into m.
func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// names returns the metric names in sorted order.
func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runConfig is what a run is told; everything else a workload needs it
// derives from these.
type runConfig struct {
	seed     int64
	seconds  float64 // length of the timed section
	smoke    bool    // 1/50-size inputs, for tests
	workers  int     // W: sessions/connections the load generator runs
	setups   int     // set-ups the untraced run times; setup_s is their median
	every    int     // span sampling: 1 query in every
	tmp      string  // scratch directory (image files, station binary)
	repo     string  // directory of the dsi module, to build dsistation from
	traceOut string  // file the traced run appends its spans to; "" keeps them in memory only
}

// scale shrinks a workload size for the smoke run.
func (c *runConfig) scale(n int) int {
	if !c.smoke {
		return n
	}
	if n /= 50; n < 1 {
		n = 1
	}
	return n
}

// defaultWorkers is W = min(nproc, 4): the load generator never asks for
// more parallelism than the box has.
func defaultWorkers() int {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	return w
}

// sectionMode selects what a timed section runs.
type sectionMode int

const (
	// sectionRun is the end-to-end section: the workload as its users
	// run it, seams bare.
	sectionRun sectionMode = iota
	// sectionBare is the traced run's comparator: the path the
	// decorators can wrap, without them. It differs from sectionRun only
	// where the workload itself is opaque to the seams (massive.Run).
	sectionBare
	// sectionTraced is sectionBare with the decorators on.
	sectionTraced
)

// tally is what one timed section produced.
type tally struct {
	queries  int
	failed   int
	failures []string
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	// liveHeapMB is the heap reachable at the end of the section, with the
	// workload's sessions, receivers and results still alive.
	liveHeapMB float64
	// latBytes/tunBytes are the paper metrics: mean access latency and
	// tuning time per query, in bytes.
	latBytes, tunBytes float64
	// sampledWall sums the per-query wall-clock of the queries whose spans
	// were kept, over all clients.
	sampledWall time.Duration
	// extra carries readings that exist on this workload only.
	extra metrics
	// recs are the span recorders of a traced section.
	recs []*recorder
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// measure runs the workload's closed loop for d.
	measure(d time.Duration, mode sectionMode) (tally, error)
	// layers reduces a traced section to the workload's per-layer span
	// and count metrics.
	layers(dec tally) metrics
	// close releases everything the set-up acquired.
	close()
}

// workload is a named input family.
type workload struct {
	name string
	why  string
	// prepare, when set, runs once before any set-up and is not timed:
	// work that is not the system's (building the daemon under test).
	prepare func(cfg *runConfig) error
	// setup builds everything that precedes the first timed query, from
	// the given seed.
	setup func(cfg *runConfig, seed int64) (instance, error)
}

var workloads = []*workload{replayKNN, replayWindow, wireLossy, netFlood, netLive}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   metrics            `json:"metrics"`
	Sizes     map[string]float64 `json:"sizes"` // what the run actually did
}

// runWorkload measures one workload once.
//
// Untraced: set up, then one timed section with the seams bare, then
// cfg.setups-1 more set-ups (setup_s is the median of all); the result
// carries the end-to-end metrics. Traced: set up once, a bare and a
// decorated section of a quarter of the time each, then the workload's
// own layer measurements and the kernels; the result carries every
// per-layer metric, 0 for those that do not exist on this workload.
func runWorkload(w *workload, cfg *runConfig, traced bool) (result, error) {
	res := result{Workload: w.name, Seed: cfg.seed, Traced: traced, Metrics: metrics{}, Sizes: map[string]float64{}}

	if w.prepare != nil {
		if err := w.prepare(cfg); err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	// setUp times one set-up; the garbage of whatever ran before it is
	// collected outside the timed part.
	setUp := func(seed int64) (instance, float64, error) {
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(cfg, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		return inst, time.Since(t0).Seconds(), nil
	}
	inst, firstSetup, err := setUp(cfg.seed)
	if err != nil {
		return res, err
	}
	// Closed before the repeated set-ups and the kernels run (the kernels
	// count allocations and want the process quiet), or on the way out.
	closeInst := sync.OnceFunc(inst.close)
	defer closeInst()
	d := time.Duration(cfg.seconds * float64(time.Second))
	res.Sizes["workers"] = float64(cfg.workers)
	// Three times the expected duration of a section and its gates.
	section := func(d time.Duration, mode sectionMode) (tally, error) {
		runtime.GC()
		return watchdog(3*(d+10*time.Second), func() (tally, error) { return inst.measure(d, mode) })
	}

	if !traced {
		t, err := section(d, sectionRun)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted, res.Failed, res.Failures = t.queries, t.failed, t.failures
		res.Sizes["queries"] = float64(t.queries)
		res.Sizes["timed_s"] = t.wall.Seconds()
		res.Metrics = endToEnd(t)
		closeInst()

		// setup_s is the median of cfg.setups set-ups: most last tens of
		// milliseconds, and one reading of that is mostly scheduling. The
		// repetitions come after the section, so that the section's memory
		// metrics see the process as one set-up leaves it, and build from
		// other seeds, so that process-wide caches (netrecv's catalog cache)
		// stay cold.
		setups := []float64{firstSetup}
		for rep := 1; rep < cfg.setups; rep++ {
			again, s, err := setUp(cfg.seed*1009 + int64(rep))
			if err != nil {
				return res, err
			}
			again.close()
			setups = append(setups, s)
		}
		res.Sizes["setups"] = float64(len(setups))
		res.Metrics.set("setup_s", median(setups), "s")
		return res, nil
	}

	// An unmeasured stretch first, so the bare section does not pay for
	// cold caches the decorated one after it would not.
	if _, err := section(d/16, sectionBare); err != nil {
		return res, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	bare, err := section(d/4, sectionBare)
	if err != nil {
		return res, fmt.Errorf("%s: bare section: %w", w.name, err)
	}
	dec, err := section(d/4, sectionTraced)
	if err != nil {
		return res, fmt.Errorf("%s: traced section: %w", w.name, err)
	}
	res.Attempted = bare.queries + dec.queries
	res.Failed = bare.failed + dec.failed
	res.Failures = append(bare.failures, dec.failures...)
	res.Sizes["queries"] = float64(bare.queries)
	res.Sizes["traced_queries"] = float64(dec.queries)

	pl := metrics{}
	for _, def := range perLayerDefs {
		pl.set(def.Name, 0, def.Unit)
	}
	pl.merge(bare.extra)
	pl.merge(inst.layers(dec))
	pl.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	pl.set("peak_rss_mb", peakRSSMB(), "MB")
	if b := rate(bare); b > 0 {
		pl.set("bench.trace_overhead_ratio", rate(dec)/b, "ratio")
	}
	closeInst()
	pl.merge(runKernels(cfg))
	res.Metrics = pl
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, w.name, dec.recs); err != nil {
			return res, err
		}
	}
	return res, nil
}

// rate is a section's verified queries per second.
func rate(t tally) float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.queries-t.failed) / t.wall.Seconds()
}

// endToEnd reduces the end-to-end section to its metrics: the ones every
// workload has (setup_s is the caller's), then the ones only this
// workload has.
func endToEnd(t tally) metrics {
	m := metrics{}
	q := float64(t.queries)
	m.set("queries_per_s", rate(t), "1/s")
	m.set("cpu_ms_per_query", t.cpu.Seconds()*1e3/q, "ms")
	m.set("alloc_kb_per_query", float64(t.alloc)/1024/q, "KB")
	m.set("live_heap_mb", t.liveHeapMB, "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("access_latency_bytes_mean", t.latBytes, "B")
	m.set("tuning_bytes_mean", t.tunBytes, "B")
	m.set("failed_ratio", float64(t.failed)/q, "ratio")
	m.merge(t.extra)
	return m
}

// timed runs fn as a timed section and fills in the tally's process-level
// meters. The collector runs at its default pace inside the section: its
// cost is part of what a query costs.
func timed(fn func() tally) tally {
	start := readUsage()
	t := fn()
	t.wall, t.cpu, t.alloc = readUsage().sub(start)
	return t
}

// watchdog runs a timed section and gives up on it after limit: a peer
// that died (a station that stopped streaming) then costs a failed run,
// not a hung benchmark. The abandoned goroutine is left behind; the
// caller is about to report the failure, stop its children and exit.
func watchdog(limit time.Duration, fn func() (tally, error)) (tally, error) {
	type outcome struct {
		t   tally
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		t, err := fn()
		done <- outcome{t, err}
	}()
	tm := time.NewTimer(limit)
	defer tm.Stop()
	select {
	case o := <-done:
		return o.t, o.err
	case <-tm.C:
		return tally{}, fmt.Errorf("watchdog: section still running after %v", limit)
	}
}
