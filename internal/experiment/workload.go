package experiment

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/massive"
	"dsi/internal/obs"
	"dsi/internal/spatial"
)

// Workload is a reproducible query mix. The same workload is replayed
// against every system so comparisons see identical queries, probe
// positions (scaled to each system's cycle), and loss processes.
type Workload struct {
	DS      *dataset.Dataset
	Queries int
	Seed    int64
	// Verify cross-checks every result against brute force and panics
	// on mismatch; experiments double as end-to-end correctness tests.
	Verify bool
	// Theta enables the link-error model.
	Theta float64
	// BurstLen, when positive, replaces the i.i.d. error process with
	// the Gilbert-Elliott burst model at the same stationary loss rate
	// Theta and this mean burst length in packets.
	BurstLen float64
	// LossData extends the error process to data packets. The paper's
	// link-error model (and the default here) corrupts index packets
	// only; the FEC experiment needs losses on everything the channel
	// carries.
	LossData bool
	// Obs, when set, collects operational counters from the replay's
	// receivers and stations; nil leaves the hot paths uninstrumented.
	Obs *obs.Registry
}

// Metrics are per-query averages in bytes, the unit the paper reports.
type Metrics struct {
	LatencyBytes float64
	TuningBytes  float64
}

func (m Metrics) String() string {
	return fmt.Sprintf("latency=%.0fB tuning=%.0fB", m.LatencyBytes, m.TuningBytes)
}

// windowQuery is one generated window query instance.
type windowQuery struct {
	w     spatial.Rect
	uProb float64 // uniform (0,1) scaled to the system's cycle
	seed  int64   // loss-model seed
}

// newWorkloadRNG returns the deterministic stream for a workload seed.
// PCG seeding is O(1), unlike the legacy math/rand source whose 607-word
// seeding dominated short workload generations.
func newWorkloadRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
}

// genWindows generates the window workload for a WinSideRatio.
func (wl *Workload) genWindows(ratio float64) []windowQuery {
	rng := newWorkloadRNG(wl.Seed)
	side := wl.DS.Curve.Side()
	win := uint32(float64(side) * ratio)
	if win == 0 {
		win = 1
	}
	out := make([]windowQuery, wl.Queries)
	for i := range out {
		out[i] = windowQuery{
			w: spatial.ClampedWindow(
				uint32(rng.IntN(int(side))), uint32(rng.IntN(int(side))), win, side),
			uProb: rng.Float64(),
			seed:  int64(rng.Uint64() >> 1),
		}
	}
	return out
}

type knnQuery struct {
	q     spatial.Point
	uProb float64
	seed  int64
}

// genKNN generates the kNN workload.
func (wl *Workload) genKNN() []knnQuery {
	rng := newWorkloadRNG(wl.Seed + 1)
	side := int(wl.DS.Curve.Side())
	out := make([]knnQuery, wl.Queries)
	for i := range out {
		out[i] = knnQuery{
			q:     spatial.Point{X: uint32(rng.IntN(side)), Y: uint32(rng.IntN(side))},
			uProb: rng.Float64(),
			seed:  int64(rng.Uint64() >> 1),
		}
	}
	return out
}

func (wl *Workload) loss(seed int64) *broadcast.LossModel {
	if wl.Theta == 0 {
		return nil
	}
	var m *broadcast.LossModel
	if wl.BurstLen > 0 {
		m = broadcast.GilbertForTheta(wl.Theta, wl.BurstLen, seed)
	} else {
		m = broadcast.NewLossModel(wl.Theta, seed)
	}
	m.AffectsData = wl.LossData
	return m
}

// RunWindow replays the window workload with the given WinSideRatio
// against the system and returns average metrics.
//
// Queries are sharded across the package worker pool (SetParallelism),
// each worker replaying through a session the system lends it against
// the shared immutable index. Every query is fully determined by its
// precomputed workload entry (window, probe fraction, loss seed) and
// per-query stats are accumulated in query order, so the averages are
// bit-identical at any parallelism setting.
func (wl *Workload) RunWindow(sys System, ratio float64) Metrics {
	return meanOf(wl.windowStats(sys, wl.genWindows(ratio), (*Workload).loss))
}

// RunWindowDist replays the window workload and reports the cost
// distribution. Determinism and sharding are as for RunWindow.
func (wl *Workload) RunWindowDist(sys System, ratio float64) DistMetrics {
	return distOf(wl.windowStats(sys, wl.genWindows(ratio), (*Workload).loss))
}

// windowStats replays an explicit window-query list, each query under
// the loss model lossOf draws from its seed, and returns the per-query
// stats in query order. It serves the uniform workloads, the skewed
// ones generated elsewhere, and per-channel loss processes alike.
// lossOf takes the workload as an argument so the common case,
// (*Workload).loss, is a static function value rather than an
// allocated method value.
func (wl *Workload) windowStats(sys System, qs []windowQuery, lossOf func(wl *Workload, seed int64) *broadcast.LossModel) []broadcast.Stats {
	cycle := float64(sys.CycleLen())
	return replayStats(len(qs), sys.Acquire, sys.Release, func(s QuerySession, i int) broadcast.Stats {
		q := qs[i]
		got, st := s.Window(q.w, int64(q.uProb*cycle), lossOf(wl, q.seed))
		wl.checkWindow(sys.Name(), q.w, got)
		return st
	})
}

// RunKNN replays the kNN workload against the system. Sharding and
// determinism are as for RunWindow.
func (wl *Workload) RunKNN(sys System, k int) Metrics {
	qs := wl.genKNN()
	cycle := float64(sys.CycleLen())
	return meanOf(replayStats(len(qs), sys.Acquire, sys.Release, func(s QuerySession, i int) broadcast.Stats {
		q := qs[i]
		got, st := s.KNN(q.q, k, int64(q.uProb*cycle), wl.loss(q.seed))
		wl.checkKNN(sys.Name(), q.q, k, got)
		return st
	}))
}

// checkWindow panics when the workload verifies and got is not the
// brute-force answer to window w; experiments double as end-to-end
// correctness tests.
func (wl *Workload) checkWindow(name string, w spatial.Rect, got []int) {
	if !wl.Verify {
		return
	}
	if want := wl.DS.WindowBrute(w); !slices.Equal(got, want) {
		panic(fmt.Sprintf("experiment: %s window %v returned %d objects, want %d",
			name, w, len(got), len(want)))
	}
}

// checkKNN is checkWindow for a kNN answer, compared by distance
// multisets (ties may be broken differently by different systems).
func (wl *Workload) checkKNN(name string, q spatial.Point, k int, got []int) {
	if !wl.Verify {
		return
	}
	want, _ := wl.DS.KNNBrute(q, k)
	if !sameDistances(wl.DS, q, got, want) {
		panic(fmt.Sprintf("experiment: %s kNN at %v k=%d wrong", name, q, k))
	}
}

// replayStats is the deterministic parallel replay core every workload
// runner goes through: it executes n independent query simulations on
// the worker pool, each worker holding one reusable state W (acquired
// when the worker starts, released when it drains), every query
// execution holding a global token — so total in-flight query work
// stays within SetParallelism even when a figure sweep runs several
// workloads concurrently — and returns the per-query stats in query
// order, which makes every aggregate of them bit-identical at any
// parallelism setting.
func replayStats[W any](n int, acquire func() W, release func(W), query func(w W, i int) broadcast.Stats) []broadcast.Stats {
	stats := make([]broadcast.Stats, n)
	toks := queryTokens()
	parallelWorkers(n, func(next func() (int, bool)) {
		w := acquire()
		if release != nil {
			defer release(w)
		}
		for i, ok := next(); ok; i, ok = next() {
			toks <- struct{}{}
			stats[i] = query(w, i)
			<-toks
		}
	})
	return stats
}

func meanOf(stats []broadcast.Stats) Metrics {
	var lat, tun float64
	for _, st := range stats {
		lat += float64(st.LatencyBytes())
		tun += float64(st.TuningBytes())
	}
	q := float64(len(stats))
	return Metrics{LatencyBytes: lat / q, TuningBytes: tun / q}
}

// DistMetrics reports a workload's per-query cost distribution: the
// mean and the 95th percentile, both in bytes.
type DistMetrics struct {
	Mean Metrics
	P95  Metrics
}

// distOf aggregates per-query stats into mean and p95 metrics. The
// percentile is the nearest-rank one over each metric independently.
func distOf(stats []broadcast.Stats) DistMetrics {
	lat := make([]float64, len(stats))
	tun := make([]float64, len(stats))
	for i, st := range stats {
		lat[i] = float64(st.LatencyBytes())
		tun[i] = float64(st.TuningBytes())
	}
	slices.Sort(lat)
	slices.Sort(tun)
	return DistMetrics{
		Mean: meanOf(stats),
		P95:  Metrics{LatencyBytes: massive.Percentile(lat, 0.95), TuningBytes: massive.Percentile(tun, 0.95)},
	}
}

// sameDistances compares kNN answers by their distance multisets.
func sameDistances(ds *dataset.Dataset, q spatial.Point, a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	da := make([]float64, len(a))
	db := make([]float64, len(b))
	for i := range a {
		da[i] = ds.ByID(a[i]).P.Dist2(q)
		db[i] = ds.ByID(b[i]).P.Dist2(q)
	}
	slices.Sort(da)
	slices.Sort(db)
	return slices.Equal(da, db)
}
