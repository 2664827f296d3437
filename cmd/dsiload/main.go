// Command dsiload drives the event-driven replay engine at population
// scale: a configurable number of concurrent window/kNN clients — a
// million by default — replayed against the four broadcast
// organizations (classic, split, sharded, erasure-coded) at matched
// per-channel bandwidth, reporting the percentile surface per arm plus
// the engine's own throughput and per-client state budget.
//
// Usage:
//
//	dsiload                          # 1M clients, all four arms
//	dsiload -clients 250000 -arms classic,shard
//	dsiload -json                    # machine-readable reports
//	dsiload -metrics :9090           # live /metrics + /debug/pprof
//	dsiload -trace out.jsonl         # slot timelines of a client sample
//	dsiload -parallel                # interleave the arms across workers
//
// With -net it instead drives concurrent network clients against a
// live dsistation daemon, each with its own transport subscription and
// receiver, and reports served-queries/sec with latency percentiles:
//
//	dsiload -net http://localhost:8345                      # 1000 HTTP clients
//	dsiload -net http://localhost:8345 -transport udp -netclients 50
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dsi/internal/dsi"
	"dsi/internal/massive"
	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/spatial"
)

func main() {
	var (
		clients  = flag.Int("clients", 1_000_000, "concurrent clients per arm")
		n        = flag.Int("n", 10000, "number of objects")
		order    = flag.Int("order", 8, "Hilbert curve order")
		seed     = flag.Int64("seed", 1, "dataset + population seed")
		objB     = flag.Int("objbytes", 1024, "object payload bytes")
		chans    = flag.Int("channels", 4, "channels of the split and sharded arms")
		knnFrac  = flag.Float64("knnfrac", 0.5, "fraction of clients running kNN queries")
		k        = flag.Int("k", 5, "kNN k")
		win      = flag.Float64("win", 0.1, "window side / grid side")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		arms     = flag.String("arms", "", "comma-separated arm subset (classic,split,shard,fec); empty = all")
		asJSON   = flag.Bool("json", false, "emit reports as JSON")
		metrics  = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090; empty = off)")
		trace    = flag.String("trace", "", "write per-query slot-timeline JSONL for a sampled client subset to this file")
		traceSmp = flag.Int("tracesample", 1000, "trace roughly one in this many clients (deterministic sample)")
		parallel = flag.Bool("parallel", false, "replay the selected arms concurrently, splitting the workers among them")

		netURL     = flag.String("net", "", "drive network clients against a live dsistation at this base URL instead of replaying in-process")
		netClients = flag.Int("netclients", 1000, "concurrent network clients with -net")
		netQueries = flag.Int("queries", 4, "queries per network client with -net")
		netTrans   = flag.String("transport", "http", "network transport with -net: http | udp")
		netRing    = flag.Int("ring", 2048, "per-client reassembly ring in slots with -net, rounded up to a power of two")
		netRamp    = flag.Int("ramp", 100, "subscription ramp with -net: at most this many clients connecting at once")
	)
	flag.Parse()

	if *netURL != "" {
		var reg *obs.Registry
		if *metrics != "" {
			reg = obs.NewRegistry()
			addr, err := obs.Serve(*metrics, reg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsiload: metrics listener: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("dsiload: serving /metrics and /debug/pprof on http://%s\n", addr)
		}
		runNet(*netURL, *netTrans, *netClients, *netQueries, *knnFrac, *k, *win, *seed, *netRing, *netRamp, reg)
		return
	}

	bed, err := massive.NewTestbed(massive.BedConfig{
		N: *n, Order: *order, Seed: *seed, Channels: *chans, ObjectBytes: *objB,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiload: %v\n", err)
		os.Exit(1)
	}
	picked := bed.Arms
	if *arms != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*arms, ",") {
			want[strings.TrimSpace(name)] = true
		}
		picked = picked[:0:0]
		for _, arm := range bed.Arms {
			if want[arm.Name] {
				picked = append(picked, arm)
				delete(want, arm.Name)
			}
		}
		if len(want) > 0 || len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "dsiload: unknown arms in %q (have classic,split,shard,fec)\n", *arms)
			os.Exit(1)
		}
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		massive.RegisterMetrics(reg, bed)
		addr, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsiload: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dsiload: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	var tracer *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsiload: trace file: %v\n", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		tracer = obs.NewTracer(bw, *traceSmp, *seed)
		defer func() {
			bw.Flush()
			f.Close()
			fmt.Printf("dsiload: traced %d client timelines to %s\n", tracer.Emitted(), *trace)
		}()
	}

	kf := *knnFrac
	if kf == 0 {
		// Config treats a zero KNNFrac as unset (default 0.5); a negative
		// fraction expresses "window-only" without tripping the default.
		kf = -1
	}
	cfg := massive.Config{
		Clients: *clients, KNNFrac: kf, K: *k,
		WinSideRatio: *win, Seed: *seed + 1000, Workers: *workers,
		Obs: reg, Trace: tracer,
	}
	fmt.Printf("dsiload: %d clients/arm over %d objects (order %d), %d-byte objects\n",
		*clients, *n, *order, *objB)

	reports := make([]massive.Report, len(picked))
	wall := time.Now()
	if *parallel {
		// Arms share the machine, so per-arm wall time — and with it the
		// clients/sec column — measures contention, not engine throughput;
		// only the sequential mode reports honest per-arm rates. The
		// percentile surfaces are unaffected (client outcomes are a
		// function of client id alone, at any scheduling).
		per := cfg
		per.Workers = *workers
		if per.Workers <= 0 {
			per.Workers = runtime.GOMAXPROCS(0)
		}
		if per.Workers > len(picked) {
			per.Workers /= len(picked)
		} else {
			per.Workers = 1
		}
		var wg sync.WaitGroup
		for i, arm := range picked {
			wg.Add(1)
			go func(i int, arm *massive.Arm) {
				defer wg.Done()
				t0 := time.Now()
				res := massive.Run(bed, arm, per)
				reports[i] = res.ReportOf(arm, bed.X.Cfg.Capacity, time.Since(t0).Seconds())
			}(i, arm)
		}
		wg.Wait()
		if !*asJSON {
			for _, rep := range reports {
				fmt.Printf("%-8s %9.1fs  %12.0f clients/s (interleaved; rate reflects contention)  %2.0f B/client\n",
					rep.Name, rep.Seconds, rep.ClientsPerSec, rep.BytesPerClient)
			}
		}
	} else {
		for i, arm := range picked {
			t0 := time.Now()
			res := massive.Run(bed, arm, cfg)
			secs := time.Since(t0).Seconds()
			rep := res.ReportOf(arm, bed.X.Cfg.Capacity, secs)
			reports[i] = rep
			if !*asJSON {
				fmt.Printf("%-8s %9.1fs  %12.0f clients/s  %2.0f B/client\n",
					arm.Name, secs, rep.ClientsPerSec, rep.BytesPerClient)
			}
		}
	}
	if !*asJSON {
		fmt.Printf("total    %9.1fs wall-clock over %d arm(s)\n",
			time.Since(wall).Seconds(), len(picked))
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "dsiload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("\n%-8s %12s %12s %12s %12s %12s %10s %8s\n",
		"arm", "lat p50", "lat p95", "lat p99", "lat p999", "tun p50", "tun p99", "sw p99")
	for _, rep := range reports {
		fmt.Printf("%-8s %12.0f %12.0f %12.0f %12.0f %12.0f %10.0f %8.0f\n",
			rep.Name,
			rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.P999,
			rep.Tuning.P50, rep.Tuning.P99, rep.Switches.P99)
	}
	fmt.Println("\nlatency/tuning in bytes at 64B packets; state is durable bytes per client")
}

// netRX is what every network receiver flavor exposes to the load
// driver.
type netRX interface {
	dsi.Receiver
	LiveSlot() int64
	Reconnects() int64
	Feed() *netrecv.Feed
	Close()
}

// netResult is one network client's outcome.
type netResult struct {
	lat, tun   []int64 // per-query access latency / tuning time in bytes
	served     int
	reconnects int64
	lost       int64
	err        error
}

// runNet drives clients concurrent network clients against one live
// station. The catalog is bootstrapped once and shared (one index
// build); every client holds its own transport subscription, feed, and
// receiver — the per-client state a real deployment would hold.
func runNet(baseURL, transport string, clients, queries int, knnFrac float64, k int, winRatio float64, seed int64, ring, ramp int, reg *obs.Registry) {
	// A generous wait: a thousand clients subscribing against one
	// station make stream start-up contended, and a stalled stream is
	// better reported as losses than as a failed construction.
	opt := netrecv.Options{
		Registry: reg, RingSlots: ring,
		WaitTimeout: 15 * time.Second,
	}
	cat, err := netrecv.Bootstrap(baseURL, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiload: %v\n", err)
		os.Exit(1)
	}
	if transport == "udp" && cat.Meta.UDP == "" {
		fmt.Fprintln(os.Stderr, "dsiload: station has no UDP transport up (run dsistation with -udp)")
		os.Exit(1)
	}
	fmt.Printf("dsiload: station %s: %s, %d channels (%s), %d slots/sec\n",
		baseURL, cat.DS.Name, cat.Lay.Channels(), cat.Meta.Scheduler, cat.Meta.SlotsPerSec)
	fmt.Printf("dsiload: %d clients x %d queries over %s\n", clients, queries, transport)

	side := cat.DS.Curve.Side()
	winSide := uint32(winRatio * float64(side))
	results := make([]netResult, clients)
	var wg sync.WaitGroup
	if ramp < 1 {
		ramp = 1
	}
	sem := make(chan struct{}, ramp)
	t0 := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			results[i] = runNetClient(baseURL, transport, cat, opt, queries, knnFrac, k, winSide, seed+int64(i), sem)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	var lat, tun []int64
	served, failed := 0, 0
	var reconnects, lost int64
	var firstErr error
	for _, r := range results {
		served += r.served
		reconnects += r.reconnects
		lost += r.lost
		lat = append(lat, r.lat...)
		tun = append(tun, r.tun...)
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	fmt.Printf("dsiload: %d/%d clients ok, %d queries served in %.1fs — %.0f served-queries/sec\n",
		clients-failed, clients, served, elapsed, float64(served)/elapsed)
	fmt.Printf("dsiload: reconnects %d, lost slots %d\n", reconnects, lost)
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sort.Slice(tun, func(i, j int) bool { return tun[i] < tun[j] })
		pct := func(s []int64, p float64) int64 { return s[int(p*float64(len(s)-1))] }
		fmt.Printf("latency bytes p50/p95/p99: %d %d %d; tuning bytes p50/p95/p99: %d %d %d\n",
			pct(lat, 0.50), pct(lat, 0.95), pct(lat, 0.99),
			pct(tun, 0.50), pct(tun, 0.95), pct(tun, 0.99))
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "dsiload: %d clients failed; first error: %v\n", failed, firstErr)
		os.Exit(1)
	}
}

// runNetClient subscribes one client and runs its query mix, tuning in
// at the live edge before every query like a mobile unit waking up.
// sem bounds concurrent subscriptions (released once the receiver is
// live); the queries themselves all run concurrently.
func runNetClient(baseURL, transport string, cat *netrecv.Catalog, opt netrecv.Options, queries int, knnFrac float64, k int, winSide uint32, seed int64, sem chan struct{}) netResult {
	var rx netRX
	var err error
	switch transport {
	case "http":
		rx, err = netrecv.NewHTTPReceiver(baseURL, cat, opt)
	case "udp":
		rx, err = netrecv.NewUDPReceiver(cat.Meta.UDP, -1, cat, opt)
	default:
		err = fmt.Errorf("unknown transport %q (have http, udp)", transport)
	}
	<-sem
	if err != nil {
		return netResult{err: err}
	}
	defer rx.Close()
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		return netResult{err: err}
	}
	rng := rand.New(rand.NewSource(seed))
	side := cat.DS.Curve.Side()
	var res netResult
	for q := 0; q < queries; q++ {
		sess.Tune(rx.LiveSlot(), nil)
		x, y := uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))
		if rng.Float64() < knnFrac {
			_, s := sess.KNN(spatial.Point{X: x, Y: y}, k, dsi.Conservative)
			res.lat = append(res.lat, s.LatencyBytes())
			res.tun = append(res.tun, s.TuningBytes())
		} else {
			_, s := sess.Window(spatial.ClampedWindow(x, y, winSide, side))
			res.lat = append(res.lat, s.LatencyBytes())
			res.tun = append(res.tun, s.TuningBytes())
		}
		res.served++
	}
	res.reconnects = rx.Reconnects()
	res.lost = rx.Feed().LostSlots()
	return res
}
