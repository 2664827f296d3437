// Censored-latency estimation for the uncoded retry baseline at
// paper-size objects.
//
// A 1KB object spans 16 packets and the rebroadcast-wait baseline
// needs all 16 to arrive in one cycle; at the fec sweep's high thetas
// that run of good slots arrives roughly never (see fecObjectBytes),
// so a plain replay of the retry arm would not terminate. Dropping the
// baseline from the 1KB figures leaves the coded arm's headline
// unanchored. Instead, the censored runner bounds every query at a
// cycle horizon and treats completion as a geometric trial process:
// each broadcast cycle the query either finishes (probability p) or
// retries into the next one. Completed queries report how many cycles
// they took; abandoned queries report horizonCycles failed trials. The
// censored-geometric maximum-likelihood estimate
//
//	p̂ = completions / Σ at-risk cycles
//
// then extrapolates the mean and the p95 the truncated replay could
// not observe directly. With zero completions the rule of three stands
// in (p̂ = 3/Σ at-risk cycles, the 95% upper confidence bound on p),
// which makes the plotted point a lower bound on the true latency —
// conservative in the direction that favors the baseline.

package experiment

import (
	"math"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
)

// censorHorizonCycles bounds the censored replay: every query is
// abandoned after this many physical broadcast cycles. Mild thetas
// complete well inside it; at the harsh end nearly everything censors
// and the fit leans on the rule of three.
const censorHorizonCycles = 8

// censorHorizon is the sentinel a horizon-bounded receiver panics with
// when a query runs past its slot budget; the censored replay recovers
// exactly this type and re-raises everything else.
type censorHorizon struct{}

// censorReceiver bounds every query at a latency horizon: each
// time-advancing call checks the latency accumulated since the last
// Reset and aborts the query (panic with censorHorizon) once the
// horizon is crossed. The runner keeps the unwound session: the next
// query's Tune resets everything the abandoned one left behind.
type censorReceiver struct {
	dsi.Receiver
	limit int64 // latency packets at which reception aborts
}

func (r *censorReceiver) check() {
	if r.Receiver.Stats().LatencyPackets >= r.limit {
		panic(censorHorizon{})
	}
}

func (r *censorReceiver) Tune(ch int) { r.Receiver.Tune(ch); r.check() }

func (r *censorReceiver) DozeUntilPos(pos int) { r.Receiver.DozeUntilPos(pos); r.check() }

func (r *censorReceiver) Next() (broadcast.Slot, bool) {
	s, ok := r.Receiver.Next()
	r.check()
	return s, ok
}

func (r *censorReceiver) Table(pos int) (*dsi.Table, bool) {
	tab, ok := r.Receiver.Table(pos)
	r.check()
	return tab, ok
}

func (r *censorReceiver) Header(pos, o int) (uint64, bool) {
	hc, ok := r.Receiver.Header(pos, o)
	r.check()
	return hc, ok
}

func (r *censorReceiver) Object(pos, o, skip int) bool {
	ok := r.Receiver.Object(pos, o, skip)
	r.check()
	return ok
}

func (r *censorReceiver) Poll() (*dsi.Layout, bool) {
	lay, ok := r.Receiver.Poll()
	r.check()
	return lay, ok
}

// censoredWindow answers window query q on s, reporting false when the
// horizon cut it off. An abandoned query leaves its session as it was
// unwound: the next query's Tune resets receiver and knowledge base
// alike, so the session answers it exactly as a fresh one would
// (TestCensoredSessionReusableAfterAbort).
func (wl *Workload) censoredWindow(s *sessionAdapter, q windowQuery, cycle int64) (ids []int, st broadcast.Stats, done bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(censorHorizon); !ok {
				panic(r)
			}
			done = false
		}
	}()
	ids, st = s.Window(q.w, int64(q.uProb*float64(cycle)), wl.loss(q.seed))
	return ids, st, true
}

// censorObs is one query's contribution to the censored fit: its
// at-risk cycle count, and its observed costs when it completed.
type censorObs struct {
	trials   int64 // cycles to completion, or the horizon when censored
	latency  int64 // latency packets (completed queries only)
	tuning   int64 // tuning packets (completed queries only)
	complete bool
}

// CensoredDist is the outcome of a horizon-bounded replay: the fitted
// latency distribution plus the raw counts behind it.
type CensoredDist struct {
	Est       DistMetrics
	P         float64 // fitted per-cycle completion probability
	Queries   int
	Completed int // queries that finished inside the horizon
}

// RunWindowCensored replays the window workload against the system
// with every query abandoned after horizonCycles broadcast cycles and
// returns the censored-geometric estimate of the latency distribution.
// Completed queries verify against brute force as usual when the
// workload verifies; censored queries cannot (they have no result).
// Tuning time is reported as the completed-query observed mean, not
// extrapolated — the paper-size figures only plot latency.
func (wl *Workload) RunWindowCensored(sys *fecArm, ratio float64, horizonCycles int) CensoredDist {
	qs := wl.genWindows(ratio)
	cycle := int64(sys.CycleLen())
	// Horizon-bounded sessions skip instrumentation: partial costs from
	// abandoned queries would pollute the registry's replay counters.
	rx := sys.wireRx
	rx.reg, rx.horizon = nil, cycle*int64(horizonCycles)
	mint := func() *sessionAdapter { return rx.open(0, nil) }
	censored := make([]bool, len(qs))
	stats := replayStats(len(qs), mint, nil, func(s *sessionAdapter, i int) broadcast.Stats {
		got, st, done := wl.censoredWindow(s, qs[i], cycle)
		if censored[i] = !done; done {
			wl.checkWindow(sys.Name(), qs[i].w, got)
		}
		return st
	})
	obs := make([]censorObs, len(qs))
	for i, st := range stats {
		if censored[i] {
			obs[i] = censorObs{trials: int64(horizonCycles)}
		} else {
			obs[i] = censorObs{trials: max(1, (st.LatencyPackets+cycle-1)/cycle),
				latency: st.LatencyPackets, tuning: st.TuningPackets, complete: true}
		}
	}
	return fitCensoredGeometric(obs, cycle, int64(sys.lay.X.Cfg.Capacity))
}

// fitCensoredGeometric fits the geometric completion law to the
// observation set and converts it to byte metrics. The mean splits
// into the within-cycle offset (estimated from completed queries; a
// full cycle stands in when nothing completed) plus the expected extra
// cycles (1-p̂)/p̂; the p95 places the geometric 95th-percentile trial
// count on the same offset.
func fitCensoredGeometric(obs []censorObs, cycle, capacity int64) CensoredDist {
	var (
		completed      int
		trials         int64
		offSum, tunSum float64
	)
	for _, o := range obs {
		trials += o.trials
		if o.complete {
			completed++
			offSum += float64(o.latency - (o.trials-1)*cycle)
			tunSum += float64(o.tuning)
		}
	}
	p := 1.0
	offset := float64(cycle)
	if trials > 0 {
		if completed > 0 {
			p = float64(completed) / float64(trials)
			offset = offSum / float64(completed)
		} else {
			// Rule of three: every trial failed, so take the 95% upper
			// confidence bound on p — a lower bound on the latency.
			p = 3 / float64(trials)
		}
	}
	if p > 1 {
		p = 1
	}
	n95 := 1.0
	if p < 1 {
		n95 = math.Ceil(math.Log(0.05) / math.Log(1-p))
	}
	var meanTun float64
	if completed > 0 {
		meanTun = tunSum / float64(completed)
	}
	c, b := float64(cycle), float64(capacity)
	return CensoredDist{
		Est: DistMetrics{
			Mean: Metrics{LatencyBytes: (offset + c*(1-p)/p) * b, TuningBytes: meanTun * b},
			P95:  Metrics{LatencyBytes: (offset + (n95-1)*c) * b, TuningBytes: meanTun * b},
		},
		P:         p,
		Queries:   len(obs),
		Completed: completed,
	}
}
