package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSelfTimes pins the span arithmetic: a span's self time is its
// duration minus the part of its interval its direct children cover,
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Kind: spanWindow, Start: 0, End: 100}, // 0: root
		{Parent: 0, Kind: spanTable, Start: 10, End: 30},   // 1: rx op with two source reads
		{Parent: 1, Kind: spanPacketAt, Start: 12, End: 17},
		{Parent: 1, Kind: spanPacketAt, Start: 20, End: 28},
		{Parent: 0, Kind: spanObject, Start: 40, End: 70},   // 4
		{Parent: 0, Kind: spanObject, Start: 60, End: 80},   // 5: overlaps 4 by 10
		{Parent: 0, Kind: spanDoze, Start: 95, End: 120},    // 6: runs past the root
		{Parent: 4, Kind: spanPacketAt, Start: 45, End: 45}, // 7: empty
	}
	want := []int64{
		100 - (20 + 40 + 5), // root: [10,30] + [40,80] merged + [95,100] clipped
		20 - (5 + 8),
		5, 8,
		30, 20, 25, 0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[spans[i].Kind], got[i], want[i])
		}
	}

	// The layers of a properly nested query partition its root span.
	nested := spans[:5]
	self := selfTimes(nested)
	var sum int64
	for _, s := range self {
		sum += s
	}
	if root := nested[0].End - nested[0].Start; sum != root {
		t.Errorf("nested self times sum to %d, root lasts %d", sum, root)
	}
}

// TestRecorder checks that the decorators' bookkeeping nests spans under
// the operation that caused them, counts every operation but records
// only sampled queries, and samples deterministically.
func TestRecorder(t *testing.T) {
	r := newRecorder(time.Now(), 4)
	sampled := 0
	for q := int64(0); q < 400; q++ {
		root := r.beginQuery(spanKNN, q)
		op := r.begin(spanTable)
		r.end(r.begin(spanPacketAt))
		r.end(op)
		r.end(root)
		if root >= 0 {
			sampled++
		}
		if (root >= 0) != sampledQuery(q, 4) {
			t.Fatalf("query %d: recorder and sampledQuery disagree", q)
		}
	}
	if sampled < 60 || sampled > 140 {
		t.Errorf("1-in-4 sampling kept %d of 400 queries", sampled)
	}
	if r.queries != 400 || r.counts[spanTable] != 400 || r.counts[spanPacketAt] != 400 {
		t.Errorf("counts: %d queries, %d table, %d packet_at; want 400 each", r.queries, r.counts[spanTable], r.counts[spanPacketAt])
	}
	spans := r.spans()
	if len(spans) != 3*sampled {
		t.Fatalf("%d spans recorded for %d sampled queries", len(spans), sampled)
	}
	for i := 0; i < len(spans); i += 3 {
		if spans[i].Parent != -1 || spans[i+1].Parent != int32(i) || spans[i+2].Parent != int32(i+1) {
			t.Fatalf("spans %d..%d: parents %d %d %d", i, i+2, spans[i].Parent, spans[i+1].Parent, spans[i+2].Parent)
		}
		if spans[i+2].Start < spans[i+1].Start || spans[i+2].End > spans[i+1].End {
			t.Fatalf("span %d is not inside its parent", i+2)
		}
	}
	a := attribute([]*recorder{r})
	if a.sampled != int64(sampled) || a.rootCount[spanKNN] != int64(sampled) {
		t.Errorf("attribution saw %d sampled roots, want %d", a.rootCount[spanKNN], sampled)
	}
	var layers int64
	for l := layer(0); l < numLayers; l++ {
		layers += a.layerSelf(l)
	}
	if layers != a.rootTotal[spanKNN] {
		t.Errorf("layer self times sum to %d, roots last %d", layers, a.rootTotal[spanKNN])
	}

	// Crossing a chunk boundary keeps ids and order.
	big := newRecorder(time.Now(), 1)
	for q := int64(0); q < spanChunk+10; q++ {
		big.end(big.beginQuery(spanWindow, q))
	}
	all := big.spans()
	if len(all) != spanChunk+10 || all[spanChunk+5].Query != spanChunk+5 {
		t.Errorf("chunked storage: %d spans, span %d has query %d", len(all), spanChunk+5, all[spanChunk+5].Query)
	}
}

// TestHighestPercentile pins the percentile rule: the highest percentile
// with at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartiles checks the quartiles against values computed with
// Python's statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 2, 2, 2, 2, 9}, 2, 2, 3.75},
		{[]float64{4, 8}, 3, 6, 9},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestJudge pins the verdict logic.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "cpu_ms_per_query", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.07}
	exact := metricDef{Name: "failed_ratio", Better: "lower", Bound: 0, Abs: true}
	hold := metricDef{Name: "slot_hold_ratio", Better: "higher", Bound: 0.005, Abs: true}
	tight := []float64{100, 101, 99, 100.5, 99.5}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{100, 130, 75, 112, 88}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same readings", lower, tight, tight, unchanged},
		{"within the bound", lower, tight, shift(tight, 1.03), unchanged},
		{"lower-better metric grew past the bound", lower, tight, shift(tight, 1.10), regressed},
		{"lower-better metric fell", lower, tight, shift(tight, 0.90), improved},
		{"higher-better metric fell past the bound", higher, tight, shift(tight, 0.90), regressed},
		{"higher-better metric grew", higher, tight, shift(tight, 1.10), improved},
		{"gain smaller than the parent's own spread", higher, tight, shift(tight, 1.002), unchanged},
		{"spread wider than the bound hides the answer", lower, noisy, shift(noisy, 1.01), unresolved},
		{"worse past the bound but sets overlap and are noisy", lower, noisy, shift(noisy, 1.10), unresolved},
		{"noisy but every run worse than every parent run", lower, noisy, shift(noisy, 2), regressed},
		{"noisy but every run better than every parent run", lower, noisy, shift(noisy, 0.5), improved},
		{"exact metric moved", exact, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0.01, 0.01, 0.01}, regressed},
		{"exact metric held", exact, []float64{0, 0, 0, 0, 0}, []float64{0, 0, 0, 0, 0}, unchanged},
		{"absolute bound held", hold, []float64{1, 0.999, 1, 1.001, 1}, []float64{0.998, 0.999, 0.998, 0.997, 0.998}, unchanged},
		{"absolute bound broken", hold, []float64{1, 0.999, 1, 1.001, 1}, []float64{0.99, 0.989, 0.99, 0.991, 0.99}, regressed},
	} {
		got, worse, spread := judge(c.def, c.a, c.b)
		if got != c.want {
			t.Errorf("%s: %s (worsening %.4f, spread %.4f), want %s", c.name, got, worse, spread, c.want)
		}
	}
}

// TestCompareSets runs compare over two synthetic sets: it must name the
// regressed row, give ratios with their base, and refuse thin sets.
func TestCompareSets(t *testing.T) {
	mk := func(qps, cpu float64, failed int) *resultSet {
		s := &resultSet{}
		for i := 0; i < minRuns; i++ {
			jitter := 1 + float64(i-2)*0.002
			s.Runs = append(s.Runs, result{
				Workload: "replay_knn", Attempted: 1000, Failed: failed,
				Metrics: metrics{
					"queries_per_s":     {Value: qps * jitter, Unit: "1/s"},
					"cpu_ms_per_query":  {Value: cpu * jitter, Unit: "ms"},
					"failed_ratio":      {Value: float64(failed) / 1000, Unit: "ratio"},
					"hilbert.encode_ns": {Value: 8 * jitter, Unit: "ns"},
				},
			})
		}
		return s
	}
	var out bytes.Buffer
	n, err := compareSets(&out, mk(650, 2.8, 0), mk(900, 2.0, 0))
	if err != nil || n != 0 {
		t.Fatalf("faster change: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), " of 650") {
		t.Errorf("compare output lacks the verdict or the ratio's base:\n%s", out.String())
	}
	out.Reset()
	n, err = compareSets(&out, mk(650, 2.8, 0), mk(500, 2.8, 0))
	if err != nil || n != 1 {
		t.Fatalf("slower change: %d regressions, err %v\n%s", n, err, out.String())
	}
	out.Reset()
	if n, _ = compareSets(&out, mk(650, 2.8, 0), mk(650, 2.8, 3)); n != 2 {
		t.Errorf("change with failed operations: %d regressions, want failed_ratio and the operation count\n%s", n, out.String())
	}
	thin := mk(650, 2.8, 0)
	thin.Runs = thin.Runs[:3]
	if _, err := compareSets(&out, thin, mk(650, 2.8, 0)); err == nil {
		t.Error("compare accepted a set of 3 runs")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest holds the metric tables to the limits of the
// BENCHMARK.json contract, and the committed BENCHMARK.json to the
// tables.
func TestManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the contract", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check("workload", w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if n := len(universalDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, d := range universalDefs {
		check("end-to-end metric", d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 || d.Abs {
			t.Errorf("%s: bound %v (abs %v)", d.Name, d.Bound, d.Abs)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayerDefs {
		check("per-layer metric", d.Name, d.Unit)
	}
	for _, d := range append(append([]metricDef(nil), universalDefs...), perLayerDefs...) {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json beside the benchmark")
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(manifest(), &got); err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run . manifest`")
	}
}

// TestSmoke runs every workload at 1/50 size, end to end and traced,
// net_live and its child process included: the harness compiles, every
// gate passes, the driver line carries exactly the registered metrics,
// and the whole thing takes seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads, a child process included")
	}
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{
				seed: 1, seconds: 0.4, smoke: true, workers: defaultWorkers(),
				setups: 1, every: 2, tmp: t.TempDir(), repo: repo,
			}
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed: %v", w.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&parsed); err != nil {
				t.Fatalf("%s: driver line: %v", w.name, err)
			}
			if parsed.Correct == nil || !*parsed.Correct || parsed.Attempted == nil || parsed.Failed == nil {
				t.Errorf("%s traced=%v: driver line %s", w.name, traced, line)
			}
			defs := universalDefs
			if traced {
				defs = perLayerDefs
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the driver line, %d registered", w.name, traced, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := parsed.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.name, d.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			// Kernels read non-zero on every workload; so does the
			// tracing's own overhead ratio.
			for _, name := range []string{
				"hilbert.ranges_disk_us", "dsi.build_ms", "wire.rs_parity_k16r8_mb_per_s",
				"station.packet_at_ns", "netsrv.drain2_slots_per_s", "netrecv.consume_ns_per_frame",
				"diskstore.sort_mrec_per_s", "sched.partition_ms", "obs.instrument_overhead_ratio",
				"bench.trace_overhead_ratio", "bench.span_coverage_ratio", "dsi.rx_ops_per_query",
			} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s reads %v", w.name, name, res.Metrics[name].Value)
				}
			}
		}
	}
	t.Logf("smoke: %v", time.Since(start))
}

// TestWatchdog: a section that never returns costs an error, not a hang.
func TestWatchdog(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := watchdog(20*time.Millisecond, func() (tally, error) { <-block; return tally{}, nil })
	if err == nil {
		t.Error("watchdog let a stuck section through")
	}
	got, err := watchdog(time.Second, func() (tally, error) { return tally{queries: 3}, nil })
	if err != nil || got.queries != 3 {
		t.Errorf("watchdog on a prompt section: %+v, %v", got, err)
	}
}
