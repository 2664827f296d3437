// The closed-loop session client every session workload (wire_lossy,
// net_flood, net_live, and the step-wise attribution of the replay
// workloads) runs W of: draw a query from the seeded stream, tune, run
// it through a dsi.Session, check the answer against brute force.

package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
)

// query is one generated operation. Everything random about it is drawn
// here, from the workload seed, before the program under test sees it.
type query struct {
	id    int64
	knn   bool
	p     spatial.Point // kNN center
	w     spatial.Rect  // window
	phase float64       // uniform [0,1): tune-in position within the cycle
	loss  int64         // loss-process seed
}

// queryStream is the deterministic query source of one worker.
type queryStream struct {
	rng     *rand.Rand
	side    uint32
	win     uint32
	knnFrac float64 // 1 all kNN, 0 all window, 0.5 strict alternation
	next    int64
	stride  int64
}

// newQueryStream returns worker's stream. Query ids interleave across
// workers (worker, worker+workers, ...), so an id names one query of the
// whole run.
func newQueryStream(seed int64, worker, workers int, side uint32, winRatio, knnFrac float64) *queryStream {
	win := uint32(float64(side) * winRatio)
	if win == 0 {
		win = 1
	}
	return &queryStream{
		rng:     rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15*uint64(worker+1))),
		side:    side,
		win:     win,
		knnFrac: knnFrac,
		next:    int64(worker),
		stride:  int64(workers),
	}
}

func (s *queryStream) draw() query {
	q := query{id: s.next}
	n := s.next / s.stride
	s.next += s.stride
	x, y := uint32(s.rng.IntN(int(s.side))), uint32(s.rng.IntN(int(s.side)))
	q.phase = s.rng.Float64()
	q.loss = int64(s.rng.Uint64() >> 1)
	switch {
	case s.knnFrac >= 1:
		q.knn = true
	case s.knnFrac > 0:
		q.knn = n%2 == 0
	}
	if q.knn {
		q.p = spatial.Point{X: x, Y: y}
	} else {
		q.w = spatial.ClampedWindow(x, y, s.win, s.side)
	}
	return q
}

// knnK is the k of every kNN query the benchmark issues.
const knnK = 5

// checkAnswer compares a session's answer with brute force over the
// dataset. Window answers must match id for id; kNN answers may break
// ties at the kth distance differently, so their sorted distance lists
// must match.
func checkAnswer(ds *dataset.Dataset, q query, got []int) error {
	if !q.knn {
		want := ds.WindowBrute(q.w)
		if len(got) != len(want) {
			return fmt.Errorf("query %d: window %v returned %d objects, want %d", q.id, q.w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("query %d: window %v object %d is id %d, want %d", q.id, q.w, i, got[i], want[i])
			}
		}
		return nil
	}
	want, _ := ds.KNNBrute(q.p, knnK)
	if len(got) != len(want) {
		return fmt.Errorf("query %d: %dNN at %v returned %d objects, want %d", q.id, knnK, q.p, len(got), len(want))
	}
	dg := make([]float64, len(got))
	dw := make([]float64, len(want))
	for i := range got {
		dg[i] = ds.ByID(got[i]).P.Dist2(q.p)
		dw[i] = ds.ByID(want[i]).P.Dist2(q.p)
	}
	sort.Float64s(dg)
	sort.Float64s(dw)
	for i := range dg {
		if dg[i] != dw[i] {
			return fmt.Errorf("query %d: %dNN at %v neighbour %d at squared distance %v, want %v", q.id, knnK, q.p, i, dg[i], dw[i])
		}
	}
	return nil
}

// client is one closed-loop session and its tally. It is driven by a
// single goroutine.
type client struct {
	sess   *dsi.Session
	ds     *dataset.Dataset
	stream *queryStream
	rec    *recorder // nil when the seams are bare

	// tune picks the query's tune-in slot and loss process.
	tune func(q query) (int64, *broadcast.LossModel)
	// check, when set, is the workload's own gate on top of brute force
	// (for example equality with an in-process reference receiver).
	check func(q query, probe int64, ids []int, st broadcast.Stats) error
	// keepWalls records each query's wall-clock and air time, for
	// workloads that report their ratio.
	keepWalls bool
	// prefix is how many of the client's first queries the paper metrics
	// are averaged over; 0 averages over all of them.
	prefix int
	// idle, when set, is called repeatedly after the client has finished
	// its part of a section and until every other client has: a lossless
	// feed must keep consuming, or its back-pressure stalls the station
	// for the clients still mid-query.
	idle func()

	buf []int
	clientTally
}

// clientTally is what a client accumulates over one measured section.
type clientTally struct {
	queries  int
	failed   int
	failures []string // first few failure texts
	// Latency and tuning in packets: the running sums over all queries,
	// and the sums over the client's first prefix queries, which every
	// run of a seed completes and so reads the same on every run.
	latSum, tunSum       int64
	latPrefix, tunPrefix int64
	prefixN              int
	sampledWall          time.Duration // summed Tune+query wall-clock of the queries whose spans were kept, checks excluded
	walls                []float64     // per query wall-clock seconds (keepWalls)
	airSlots             []float64     // per query latency in slots (keepWalls)
}

// maxFailureTexts bounds the failure messages a result carries.
const maxFailureTexts = 5

func (c *client) fail(err error) {
	c.failed++
	if len(c.failures) < maxFailureTexts {
		c.failures = append(c.failures, err.Error())
	}
}

// one draws, runs and checks one query.
func (c *client) one() {
	q := c.stream.draw()
	probe, loss := c.tune(q)

	t0 := time.Now()
	c.sess.Tune(probe, loss)
	var st broadcast.Stats
	var root int32 = -1
	if q.knn {
		if c.rec != nil {
			root = c.rec.beginQuery(spanKNN, q.id)
		}
		c.buf, st = c.sess.KNNAppend(c.buf[:0], q.p, knnK, dsi.Conservative)
	} else {
		if c.rec != nil {
			root = c.rec.beginQuery(spanWindow, q.id)
		}
		c.buf, st = c.sess.WindowAppend(c.buf[:0], q.w)
	}
	if c.rec != nil {
		c.rec.end(root)
	}
	wall := time.Since(t0)

	c.queries++
	if root >= 0 {
		c.sampledWall += wall
	}
	c.latSum += st.LatencyPackets
	c.tunSum += st.TuningPackets
	if c.prefixN < c.prefix {
		c.prefixN++
		c.latPrefix += st.LatencyPackets
		c.tunPrefix += st.TuningPackets
	}
	if c.keepWalls {
		c.walls = append(c.walls, wall.Seconds())
		c.airSlots = append(c.airSlots, float64(st.LatencyPackets))
	}
	if err := checkAnswer(c.ds, q, c.buf); err != nil {
		c.fail(err)
		return
	}
	if c.check != nil {
		if err := c.check(q, probe, c.buf, st); err != nil {
			c.fail(err)
		}
	}
}

// runUntil runs queries, at least one, until the deadline passes.
func (c *client) runUntil(deadline time.Time) {
	for {
		c.one()
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// runN runs exactly n queries (warm-up).
func (c *client) runN(n int) {
	for i := 0; i < n; i++ {
		c.one()
	}
}

// reset clears the tally, and the spans, between warm-up and the measured
// section.
func (c *client) reset() {
	c.clientTally = clientTally{}
	if c.rec != nil {
		c.rec.reset()
	}
}

// together runs fn for every client, each on its own goroutine, and
// returns when all have finished. A client that finishes early keeps
// calling its idle hook until the last one has.
func together(clients []*client, fn func(*client)) {
	var working, all sync.WaitGroup
	quiet := make(chan struct{})
	for _, c := range clients {
		working.Add(1)
		all.Add(1)
		go func(c *client) {
			defer all.Done()
			fn(c)
			working.Done()
			for c.idle != nil {
				select {
				case <-quiet:
					return
				default:
					c.idle()
				}
			}
		}(c)
	}
	working.Wait()
	close(quiet)
	all.Wait()
}

// runClients runs every client for d as one timed section and folds
// their tallies. The paper metrics come back in packets; the caller
// scales them by its packet capacity.
func runClients(clients []*client, d time.Duration) tally {
	t := timed(func() tally {
		deadline := time.Now().Add(d)
		together(clients, func(c *client) { c.runUntil(deadline) })
		return tally{}
	})
	t.liveHeapMB = liveHeapMB()
	foldClients(&t, clients)
	return t
}

// foldClients adds the clients' tallies into t. The paper metrics are
// averaged over the clients' fixed prefixes when every client completed
// its prefix, over all queries otherwise.
func foldClients(t *tally, clients []*client) {
	t.extra = metrics{}
	var lat, tun, n int64
	var latP, tunP, nP int64
	prefixed := true
	for _, c := range clients {
		t.queries += c.queries
		t.failed += c.failed
		t.failures = append(t.failures, c.failures...)
		t.sampledWall += c.sampledWall
		lat, tun, n = lat+c.latSum, tun+c.tunSum, n+int64(c.queries)
		latP, tunP, nP = latP+c.latPrefix, tunP+c.tunPrefix, nP+int64(c.prefixN)
		if c.prefix == 0 || c.prefixN < c.prefix {
			prefixed = false
		}
		if c.rec != nil {
			t.recs = append(t.recs, c.rec)
		}
	}
	if len(t.failures) > maxFailureTexts {
		t.failures = t.failures[:maxFailureTexts]
	}
	if prefixed {
		lat, tun, n = latP, tunP, nP
	}
	if n > 0 {
		t.latBytes, t.tunBytes = float64(lat)/float64(n), float64(tun)/float64(n)
	}
}

// sessionLayers reduces a traced section's spans to the per-layer
// metrics every session workload shares: the client layer's self time
// per query kind, and the operation counts at the receiver seam. The
// attribution comes back too, for the workload's own layers.
func sessionLayers(dec tally) (metrics, attribution) {
	m := metrics{}
	a := attribute(dec.recs)
	if n := a.rootCount[spanKNN]; n > 0 {
		m.set("dsi.knn_self_us", float64(a.self[spanKNN])/float64(n)/1e3, "us")
	}
	if n := a.rootCount[spanWindow]; n > 0 {
		m.set("dsi.window_self_us", float64(a.self[spanWindow])/float64(n)/1e3, "us")
	}
	if a.queries > 0 {
		m.set("dsi.rx_ops_per_query", float64(a.layerCount(layerRX))/float64(a.queries), "count")
	}
	if dec.sampledWall > 0 {
		var self int64
		for l := layer(0); l < numLayers; l++ {
			self += a.layerSelf(l)
		}
		m.set("bench.span_coverage_ratio", float64(self)/float64(dec.sampledWall), "ratio")
	}
	m.set("bench.sampled_queries", float64(a.sampled), "count")
	return m, a
}
