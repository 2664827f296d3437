// replay_knn and replay_window: the event-driven population replay of
// internal/massive over its four arms, closed loop, in rounds of a fixed
// client count until the section's time is up.

package main

import (
	"fmt"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/massive"
)

var replayKNN = &workload{
	name: "replay_knn",
	why:  "navigation-bound: kNN disk re-decomposition in hilbert and the dsi client do nearly all the work, receivers under 3 %",
	setup: func(cfg *runConfig, seed int64) (instance, error) {
		return newReplay(cfg, seed, true)
	},
}

var replayWindow = &workload{
	name: "replay_window",
	why:  "same engine, one rect decomposition per query: dsi knowledge-base walking and massive's flat receivers dominate, hilbert does little",
	setup: func(cfg *runConfig, seed int64) (instance, error) {
		return newReplay(cfg, seed, false)
	},
}

// Round sizes: clients per arm per round. A round is about a second of
// work on the reference box, so a section holds ten or more and the
// overshoot past the deadline stays below a tenth of it.
const (
	replayKNNClients    = 150
	replayWindowClients = 1500
	// replayPaperRounds is how many of the first rounds the paper metrics
	// average over; a section holds several times as many.
	replayPaperRounds = 4
)

type replay struct {
	cfg     *runConfig
	seed    int64
	knn     bool
	clients int
	bed     *massive.Testbed
}

func newReplay(cfg *runConfig, seed int64, knn bool) (*replay, error) {
	r := &replay{cfg: cfg, seed: seed, knn: knn}
	r.clients = cfg.scale(replayWindowClients)
	if knn {
		r.clients = cfg.scale(replayKNNClients)
	}
	var err error
	r.bed, err = massive.NewTestbed(massive.BedConfig{N: cfg.scale(10000), Order: 8, Seed: seed})
	return r, err
}

func (r *replay) close() {}

// population is round's client population. Every round draws from its
// own population seed, so rounds do not repeat queries.
func (r *replay) population(round, clients int) massive.Config {
	c := massive.Config{
		Clients: clients, K: knnK, WinSideRatio: 0.1, Workers: r.cfg.workers,
		Seed: r.seed*1_000_003 + int64(round) + 1,
	}
	if r.knn {
		c.KNNFrac = 1
	} else {
		c.KNNFrac = -1 // below every draw: all window queries
	}
	return c
}

func (r *replay) measure(d time.Duration, mode sectionMode) (tally, error) {
	if mode == sectionRun {
		return r.measureEngine(d)
	}
	return r.measureStepwise(d, mode == sectionTraced)
}

// measureEngine is the end-to-end section: massive.Run over all four
// arms, round after round.
func (r *replay) measureEngine(d time.Duration) (tally, error) {
	type roundResult struct {
		round int
		arm   *massive.Arm
		res   *massive.Result
	}
	var kept []roundResult
	t := timed(func() tally {
		var t tally
		deadline := time.Now().Add(d)
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			pop := r.population(round, r.clients)
			for _, arm := range r.bed.Arms {
				res := massive.Run(r.bed, arm, pop)
				kept = append(kept, roundResult{round, arm, res})
				t.queries += pop.Clients
			}
		}
		return t
	})

	t.liveHeapMB = liveHeapMB()

	// Paper metrics from the first rounds alone: a fixed population, so
	// they are a function of the seed and not of how many rounds fitted
	// the section.
	capacity := float64(r.bed.X.Cfg.Capacity)
	var lat, tun, n float64
	for _, k := range kept {
		if k.round >= replayPaperRounds {
			break
		}
		for i := range k.res.Lat {
			lat += float64(k.res.Lat[i])
			tun += float64(k.res.Tun[i])
			n++
		}
	}
	t.latBytes, t.tunBytes = lat*capacity/n, tun*capacity/n

	// Gate 1: every arm's result columns equal the step-wise reference
	// engine on the first 2 % of client ids of every round.
	ref := (r.clients + 49) / 50
	for _, k := range kept {
		want := massive.RunReference(r.bed, k.arm, r.population(k.round, ref))
		for id := 0; id < ref; id++ {
			if k.res.Lat[id] != want.Lat[id] || k.res.Tun[id] != want.Tun[id] || k.res.Sw[id] != want.Sw[id] {
				t.failed++
				if len(t.failures) < maxFailureTexts {
					t.failures = append(t.failures, fmt.Sprintf(
						"round %d arm %s client %d: engine (lat %d tun %d sw %d) != reference (lat %d tun %d sw %d)",
						k.round, k.arm.Name, id, k.res.Lat[id], k.res.Tun[id], k.res.Sw[id],
						want.Lat[id], want.Tun[id], want.Sw[id]))
				}
			}
		}
	}
	// Gate 2: the reference engine's own answers. massive.Run returns
	// costs, not id sets, so a 2 % sample of the same query distribution
	// runs step-wise through sessions and is checked against brute force.
	sample := (t.queries + 49) / 50
	clients := r.stepwise(nil)
	per := (sample + len(clients) - 1) / len(clients)
	together(clients, func(c *client) { c.runN(per) })
	for _, c := range clients {
		t.failed += c.failed
		t.failures = append(t.failures, c.failures...)
	}
	if t.failed > t.queries {
		t.failed = t.queries
	}
	return t, nil
}

// stepwise opens W step-wise sessions over the classic arm with the
// workload's query distribution: the SimReceiver path massive.Run is
// pinned to, with a receiver seam that can be decorated (it is when
// epoch, the recorders' time origin, is set).
func (r *replay) stepwise(epoch *time.Time) []*client {
	lay := r.bed.Arms[0].Lay
	cycle := float64(lay.ProbeCycle())
	side := r.bed.DS.Curve.Side()
	knnFrac := 0.0
	if r.knn {
		knnFrac = 1
	}
	clients := make([]*client, r.cfg.workers)
	for w := range clients {
		var rec *recorder
		if epoch != nil {
			rec = newRecorder(*epoch, r.cfg.every)
		}
		rx := traceReceiver(dsi.NewSimReceiver(lay, 0, nil), rec)
		sess, err := dsi.Open(r.bed.X, dsi.WithReceiver(rx))
		if err != nil {
			panic(fmt.Sprintf("replay: opening step-wise session: %v", err))
		}
		clients[w] = &client{
			sess: sess, ds: r.bed.DS, rec: rec,
			stream: newQueryStream(r.seed+7, w, r.cfg.workers, side, 0.1, knnFrac),
			tune: func(q query) (int64, *broadcast.LossModel) {
				return int64(q.phase * cycle), nil
			},
		}
	}
	return clients
}

// measureStepwise is the traced run's pair of sections: the step-wise
// sessions, bare or decorated. massive.Run is opaque to the seams, so
// the replay workloads are attributed on this path.
func (r *replay) measureStepwise(d time.Duration, traced bool) (tally, error) {
	var epoch *time.Time
	if traced {
		now := time.Now()
		epoch = &now
	}
	t := runClients(r.stepwise(epoch), d)
	t.latBytes *= float64(r.bed.X.Cfg.Capacity)
	t.tunBytes *= float64(r.bed.X.Cfg.Capacity)
	return t, nil
}

// layers adds what only the replay workloads can report: the engine's
// throughput per arm, what the event-driven engine earns over the
// step-wise one, and its allocation per client.
func (r *replay) layers(dec tally) metrics {
	m, _ := sessionLayers(dec)
	clients := r.clients * 2
	for _, arm := range r.bed.Arms {
		pop := r.population(1<<20, clients)
		t0 := time.Now()
		massive.Run(r.bed, arm, pop)
		m.set("massive."+arm.Name+"_qps", float64(clients)/time.Since(t0).Seconds(), "1/s")
	}
	// reference_ratio: RunReference wall over Run wall, 10 % population,
	// summed over the arms.
	var runWall, refWall time.Duration
	small := (clients + 9) / 10
	for _, arm := range r.bed.Arms {
		pop := r.population(1<<21, small)
		t0 := time.Now()
		massive.Run(r.bed, arm, pop)
		runWall += time.Since(t0)
		t0 = time.Now()
		massive.RunReference(r.bed, arm, pop)
		refWall += time.Since(t0)
	}
	m.set("massive.reference_ratio", refWall.Seconds()/runWall.Seconds(), "ratio")

	pop := r.population(1<<22, clients*4)
	before := allocBytes()
	massive.Run(r.bed, r.bed.Arms[0], pop)
	m.set("massive.state_bytes_per_client", float64(allocBytes()-before)/float64(pop.Clients), "B")
	return m
}
