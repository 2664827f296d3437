// Package massive is the event-driven replay engine behind cmd/dsiload:
// population-scale client replay against the broadcast organizations.
// A population of simulated clients — each a (query, tune-in slot)
// pair derived deterministically from its client id — replays against
// one shared immutable air snapshot (the testbed arm). A calendar/bucket
// queue over the tune-in slots puts the whole population in one
// activation order on the slot clock, and workers deal themselves
// short runs of that order from a shared cursor until it is used up, so
// none idles while another still holds work. Each activation runs its
// query to completion through a receiver that skips between tune-in
// slots and reads whole tables and objects with batched arithmetic —
// dsi.SimReceiver on the plain arms, the flat receiver on the coded one
// (broadcast clients never interact, so slot-clock order is a locality
// choice, not a correctness one — which is exactly why replay is
// deterministic at any parallelism and however the runs are dealt:
// every client's outcome is a function of its id alone).
//
// Durable per-client state is three packed result columns plus the
// client's place in the activation order — 14 bytes per client
// (StateBytesPerClient); the navigation state (knowledge base, scratch
// buffers) lives in one session per worker, reset in O(facts learned)
// between clients. The step-wise reference engine (RunReference)
// replays the identical population, dealt in id order, through the
// tuner-stepping receivers; the equivalence suite (equivalence_test.go)
// pins the two bit-identically per client.
package massive

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/spatial"

	"math/rand/v2"
)

// Config shapes the replayed population.
type Config struct {
	Clients      int          // concurrent clients (required)
	KNNFrac      float64      // fraction running kNN queries (default 0.5)
	K            int          // kNN k (default 5)
	WinSideRatio float64      // window side / grid side (default 0.1)
	Seed         int64        // population seed (default 1)
	Workers      int          // worker count (default GOMAXPROCS)
	Strategy     dsi.Strategy // kNN navigation strategy (default Conservative)

	// Obs, when set, counts every client's reception events (shared
	// atomic counters, so the replayed outcomes stay bit-identical at
	// any worker count). Trace, when set, emits the slot timeline of
	// its deterministic client sample as JSONL. Both nil — the default
	// — replay through the bare receivers.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// ClientsReplayedName is the per-arm progress counter family of a
// massive run.
const ClientsReplayedName = "massive_clients_replayed_total"

// replayedFlushEvery bounds how stale the progress counter can go: a
// worker folds its local count into the shared counter at this grain,
// so a mid-run /metrics scrape sees progress without the hot loop
// taking an atomic per client.
const replayedFlushEvery = 1024

// RegisterMetrics pre-registers every metric family a run against the
// testbed can touch, so a scrape early in a run already serves the full
// zeroed vocabulary instead of a partial one. Nil reg is a no-op.
func RegisterMetrics(reg *obs.Registry, bed *Testbed) {
	if reg == nil {
		return
	}
	for _, arm := range bed.Arms {
		obs.NewReceiverMetrics(reg, arm.Lay.Channels())
		reg.Counter(ClientsReplayedName, "clients replayed, by arm",
			obs.Label{Key: "arm", Value: arm.Name})
	}
}

func (c Config) withDefaults() Config {
	if c.KNNFrac == 0 {
		c.KNNFrac = 0.5
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.WinSideRatio == 0 {
		c.WinSideRatio = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// StateBytesPerClient is the durable per-client storage of a run: the
// three packed result columns (latency, tuning, switches) plus the
// client's entry in the calendar activation order. Everything else a
// client "is" — its query and tune-in slot — is recomputed from its
// id, and the navigation state is amortized across all the clients a
// worker is dealt.
const StateBytesPerClient = 4 + 4 + 2 + 4

// dealRun is how many consecutive activations a worker deals itself at
// a time: few enough that the workers run out of work together, and
// each deal is one atomic add against a whole query's navigation.
const dealRun = 4

// Result holds the per-client outcomes of one arm's replay as packed
// struct-of-arrays columns, indexed by client id.
type Result struct {
	Lat []uint32 // access latency, packets
	Tun []uint32 // tuning time, packets
	Sw  []uint16 // channel switches
}

func newResult(n int) *Result {
	return &Result{Lat: make([]uint32, n), Tun: make([]uint32, n), Sw: make([]uint16, n)}
}

// clientQuery is the deterministic population member derived from a
// client id: every draw comes from the client's own PCG stream, so
// outcomes are independent of worker count and processing order.
type clientQuery struct {
	knn   bool
	x, y  uint32
	probe int64 // tune-in slot, scaled to the arm's cycle
}

// queryOf derives client id's query against an arm. The probe slot
// scales a uniform fraction by the arm's cycle length (physical slots
// on the coded arm), mirroring the experiment workload convention.
func queryOf(cfg Config, side uint32, cycle int, id int) clientQuery {
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x9e3779b97f4a7c15*(uint64(id)+1)))
	q := clientQuery{}
	q.knn = rng.Float64() < cfg.KNNFrac
	q.x = uint32(rng.IntN(int(side)))
	q.y = uint32(rng.IntN(int(side)))
	q.probe = int64(rng.Float64() * float64(cycle))
	return q
}

// runPopulation replays every client of cfg against the arm, one
// session per worker. Workers deal themselves runs of dealRun
// activations from one shared cursor: the evented engine walks the
// population's calendar order (calendarOrder) over the arm's newFlat
// receivers; the reference engine walks ids in order over its
// newReference receivers.
func runPopulation(bed *Testbed, arm *Arm, cfg Config, evented bool) *Result {
	cfg = cfg.withDefaults()
	if cfg.Clients <= 0 {
		panic("massive: Config.Clients must be positive")
	}
	res := newResult(cfg.Clients)
	side := bed.DS.Curve.Side()
	cycle := arm.CycleSlots()
	winSide := uint32(cfg.WinSideRatio * float64(side))

	// order[k] is the k-th client to activate; nil means id order.
	var order []int32
	if evented {
		order = calendarOrder(cfg, side, cycle)
	}
	var cursor atomic.Int64

	workers := min(cfg.Workers, cfg.Clients)
	var wg sync.WaitGroup
	panics := make(chan any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			var rx dsi.Receiver
			if evented {
				rx = arm.newFlat()
			} else {
				rx = arm.newReference()
			}
			// Instrumentation is strictly opt-in: with neither a registry
			// nor a tracer the session runs on the bare receiver — the
			// path the disabled-overhead regression pins.
			var irx *obs.InstrumentedReceiver
			if cfg.Obs != nil || cfg.Trace != nil {
				irx = obs.InstrumentReceiver(rx, obs.NewReceiverMetrics(cfg.Obs, arm.Lay.Channels()))
				rx = irx
			}
			var replayed *obs.Counter
			if cfg.Obs != nil {
				replayed = cfg.Obs.Counter(ClientsReplayedName, "clients replayed, by arm",
					obs.Label{Key: "arm", Value: arm.Name})
			}
			sess, err := dsi.Open(bed.X, dsi.WithReceiver(rx))
			if err != nil {
				panic(fmt.Sprintf("massive: opening session: %v", err))
			}

			// buf recycles the result-ID storage across every client the
			// worker is dealt: massive replay measures cost distributions,
			// not result sets (the equivalence suite checks results on
			// small populations).
			var buf []int
			var pending int64
			run := func(id int) {
				q := queryOf(cfg, side, cycle, id)
				var rec *obs.TraceRecord
				if irx != nil && cfg.Trace.Sampled(int64(id)) {
					rec = &obs.TraceRecord{Client: int64(id), Arm: arm.Name, Probe: q.probe}
					if q.knn {
						rec.Kind = "knn"
					} else {
						rec.Kind = "window"
					}
					irx.Begin(rec)
				}
				sess.Tune(q.probe, nil)
				var st broadcast.Stats
				if q.knn {
					buf, st = sess.KNNAppend(buf[:0], spatial.Point{X: q.x, Y: q.y}, cfg.K, cfg.Strategy)
				} else {
					w := spatial.ClampedWindow(q.x, q.y, winSide, side)
					buf, st = sess.WindowAppend(buf[:0], w)
				}
				res.Lat[id] = uint32(st.LatencyPackets)
				res.Tun[id] = uint32(st.TuningPackets)
				res.Sw[id] = uint16(st.Switches)
				if rec != nil {
					irx.End()
					rec.Latency = st.LatencyPackets
					rec.Tuning = st.TuningPackets
					rec.Switches = int64(st.Switches)
					cfg.Trace.Emit(rec)
				}
				if replayed != nil {
					if pending++; pending >= replayedFlushEvery {
						replayed.Add(pending)
						pending = 0
					}
				}
			}
			defer func() {
				if pending > 0 {
					replayed.Add(pending)
				}
			}()

			for {
				k := int(cursor.Add(dealRun)) - dealRun
				if k >= cfg.Clients {
					return
				}
				for end := min(k+dealRun, cfg.Clients); k < end; k++ {
					if order != nil {
						run(int(order[k]))
					} else {
						run(k)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(panics)
	for p := range panics {
		panic(p)
	}
	return res
}

// calendarOrder returns the population's activation order on the slot
// clock: a calendar/bucket queue of at most 4096 buckets over the
// tune-in slots, ascending id within a bucket. It is a counting sort
// over two passes of the clients' derived queries, so the order is the
// only per-client array it allocates.
func calendarOrder(cfg Config, side uint32, cycle int) []int32 {
	nb := min(cycle, 1<<12)
	bucket := func(id int) int {
		probe := queryOf(cfg, side, cycle, id).probe
		return int(probe % int64(cycle) * int64(nb) / int64(cycle))
	}
	// start[b] is where bucket b's next id goes once the counts are
	// summed.
	start := make([]int32, nb+1)
	for id := 0; id < cfg.Clients; id++ {
		start[bucket(id)+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	order := make([]int32, cfg.Clients)
	for id := 0; id < cfg.Clients; id++ {
		b := bucket(id)
		order[start[b]] = int32(id)
		start[b]++
	}
	return order
}

// Run replays cfg's population against the arm on the event-driven
// engine.
func Run(bed *Testbed, arm *Arm, cfg Config) *Result {
	return runPopulation(bed, arm, cfg, true)
}

// RunReference replays the identical population in id order through
// the reference receivers — SimReceiver again on the plain arms, where
// the two engines differ in activation order only, and the byte-level
// receiver on the coded arm, the correctness anchor its flat receiver
// is pinned against.
func RunReference(bed *Testbed, arm *Arm, cfg Config) *Result {
	return runPopulation(bed, arm, cfg, false)
}
