// Command dsiquery runs a single query against a simulated DSI
// broadcast and reports the result and its cost, for exploring how the
// index behaves under different configurations.
//
// With -net it queries a live dsistation daemon instead: the catalog
// is bootstrapped from the station's /v1/meta document and the query
// tunes in at the live edge of the real broadcast stream.
//
// Usage:
//
//	dsiquery -mode window -win 40,40,80,80
//	dsiquery -mode knn -q 128,128 -k 5 -segments 2 -theta 0.5
//	dsiquery -mode point -q 17,33 -capacity 128
//	dsiquery -net http://localhost:8345 -mode knn -q 60,60 -k 5
//	dsiquery -net http://localhost:8345 -transport udp -mode window -win 20,20,60,60
package main

import (
	"flag"
	"fmt"
	"os"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/netrecv"
	"dsi/internal/spatial"
)

func main() {
	var (
		n        = flag.Int("n", 10000, "number of objects")
		order    = flag.Uint("order", 8, "Hilbert curve order")
		seed     = flag.Int64("seed", 1, "dataset seed")
		real     = flag.Bool("real", false, "use the REAL-like clustered dataset")
		capacity = flag.Int("capacity", 64, "packet capacity in bytes")
		segments = flag.Int("segments", 2, "broadcast reorganization factor m")
		mode     = flag.String("mode", "knn", "query mode: window | knn | point")
		winSpec  = flag.String("win", "100,100,125,125", "window as minX,minY,maxX,maxY")
		qSpec    = flag.String("q", "", "query point as x,y (default the grid centre)")
		k        = flag.Int("k", 10, "number of neighbors for knn")
		strat    = flag.String("strategy", "conservative", "knn strategy: conservative | aggressive")
		probe    = flag.Int64("probe", -1, "probe slot (-1 = middle of the cycle)")
		theta    = flag.Float64("theta", 0, "link-error ratio in [0,1)")
		trace    = flag.Bool("trace", false, "print every client step (probe, table, header, object)")
		channels = flag.Int("channels", 1, "parallel broadcast channels (>1 uses the split scheduler)")
		switchC  = flag.Int("switch", 2, "channel-switch cost in slots (multi-channel only)")
		netURL   = flag.String("net", "", "query a live dsistation at this base URL instead of simulating (e.g. http://localhost:8345)")
		netTrans = flag.String("transport", "http", "network transport with -net: http | udp | mcast")
	)
	flag.Parse()
	if !(*theta >= 0 && *theta < 1) {
		badFlag("-theta %v outside [0,1)", *theta)
	}
	if *order < 1 || *order > hilbert.MaxOrder {
		badFlag("-order %d outside [1,%d]", *order, hilbert.MaxOrder)
	}
	cells := uint64(1) << (2 * *order)
	if *real {
		if rn := dataset.DefaultRealConfig(*seed).N; 2*uint64(rn) > cells {
			badFlag("-order %d too small for the REAL-like dataset's %d objects", *order, rn)
		}
	} else if *n < 1 || uint64(*n) > cells {
		badFlag("-n %d outside [1,%d], the cells of an order-%d grid", *n, cells, *order)
	}
	if *k < 1 {
		badFlag("-k %d below 1", *k)
	}
	if *channels < 1 {
		badFlag("-channels %d below 1", *channels)
	}
	if *switchC < 0 {
		badFlag("-switch %d below 0", *switchC)
	}

	if *netURL != "" {
		sess, ds, cleanup := openNet(*netURL, *netTrans)
		defer cleanup()
		runQuery(sess, ds, *mode, *winSpec, *qSpec, *k, *strat, *trace)
		return
	}

	var ds *dataset.Dataset
	if *real {
		cfg := dataset.DefaultRealConfig(*seed)
		cfg.Order = *order
		ds = dataset.Clustered(cfg)
	} else {
		ds = dataset.Uniform(*n, *order, *seed)
	}

	x, err := dsi.Build(ds, dsi.Config{Capacity: *capacity, Segments: *segments})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dataset: %s\nbroadcast: %v\n", ds.Name, x)

	probeSlot := *probe
	if probeSlot < 0 {
		probeSlot = int64(x.CycleSlots() / 2)
	}
	var loss *broadcast.LossModel
	if *theta > 0 {
		loss = broadcast.NewLossModel(*theta, *seed+42)
	}
	lay := x.SingleLayout()
	if *channels > 1 {
		lay, err = dsi.NewLayout(x, dsi.MultiConfig{
			Channels:    *channels,
			Scheduler:   dsi.SchedSplit,
			SwitchSlots: *switchC,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
			os.Exit(1)
		}
	}
	sess, err := dsi.Open(x, dsi.WithLayout(lay))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
		os.Exit(1)
	}
	sess.Tune(probeSlot, loss)
	runQuery(sess, ds, *mode, *winSpec, *qSpec, *k, *strat, *trace)
}

// openNet bootstraps the station's catalog, attaches a network
// receiver over the chosen transport, and returns a session tuned at
// the live edge of the broadcast.
func openNet(baseURL, transport string) (*dsi.Session, *dataset.Dataset, func()) {
	var opt netrecv.Options
	cat, err := netrecv.Bootstrap(baseURL, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
		os.Exit(1)
	}
	var rx interface {
		dsi.Receiver
		LiveSlot() int64
		Close()
	}
	switch transport {
	case "http":
		rx, err = netrecv.NewHTTPReceiver(baseURL, cat, opt)
	case "udp":
		if cat.Meta.UDP == "" {
			err = fmt.Errorf("station has no UDP transport up (run dsistation with -udp)")
		} else {
			rx, err = netrecv.NewUDPReceiver(cat.Meta.UDP, -1, cat, opt)
		}
	case "mcast":
		if cat.Meta.Multicast == "" {
			err = fmt.Errorf("station has no multicast emission up (run dsistation with -mcast)")
		} else {
			rx, err = netrecv.NewMulticastReceiver(cat.Meta.Multicast, cat, opt)
		}
	default:
		err = fmt.Errorf("unknown transport %q (have http, udp, mcast)", transport)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
		os.Exit(1)
	}
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: %v\n", err)
		os.Exit(1)
	}
	live := rx.LiveSlot()
	fmt.Printf("station: %s\ndataset: %s (catalog checksum ok)\ntuned at live slot %d over %s\n",
		baseURL, cat.DS.Name, live, transport)
	sess.Tune(live, nil)
	return sess, cat.DS, rx.Close
}

// runQuery executes one query against the session and prints the
// result with its broadcast-cost stats.
func runQuery(sess *dsi.Session, ds *dataset.Dataset, mode, winSpec, qSpec string, k int, strat string, trace bool) {
	if trace {
		sess.SetTracer(func(e dsi.Event) { fmt.Println(" ", e) })
	}

	switch mode {
	case "window":
		var w spatial.Rect
		if _, err := fmt.Sscanf(winSpec, "%d,%d,%d,%d", &w.MinX, &w.MinY, &w.MaxX, &w.MaxY); err != nil {
			fmt.Fprintf(os.Stderr, "dsiquery: bad -win %q: %v\n", winSpec, err)
			os.Exit(2)
		}
		ids, st := sess.Window(w)
		fmt.Printf("window %v: %d objects\n", w, len(ids))
		printObjects(ds, ids, 10)
		printStats(st)
	case "knn":
		q, ok := parsePoint(qSpec, ds.Curve)
		if !ok {
			os.Exit(2)
		}
		s := dsi.Conservative
		if strat == "aggressive" {
			s = dsi.Aggressive
		}
		ids, st := sess.KNN(q, k, s)
		fmt.Printf("%dNN at %v (%s strategy):\n", k, q, s)
		printObjects(ds, ids, k)
		printStats(st)
	case "point":
		q, ok := parsePoint(qSpec, ds.Curve)
		if !ok {
			os.Exit(2)
		}
		id, found, st := sess.Point(q)
		if found {
			fmt.Printf("point %v: object %d\n", q, id)
		} else {
			fmt.Printf("point %v: no object\n", q)
		}
		printStats(st)
	default:
		fmt.Fprintf(os.Stderr, "dsiquery: unknown mode %q\n", mode)
		os.Exit(2)
	}
}

// badFlag reports an unusable flag value as one line and exits with
// status 2, as the flag package does for a malformed one.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsiquery: "+format+"\n", args...)
	os.Exit(2)
}

// parsePoint parses -q on the curve's grid: the grid centre when spec
// is empty, and false (the complaint printed) when spec is malformed or
// off the grid.
func parsePoint(spec string, curve hilbert.Curve) (spatial.Point, bool) {
	side := curve.Side()
	p := spatial.Point{X: side / 2, Y: side / 2}
	if spec == "" {
		return p, true
	}
	if _, err := fmt.Sscanf(spec, "%d,%d", &p.X, &p.Y); err != nil {
		fmt.Fprintf(os.Stderr, "dsiquery: bad point %q: %v\n", spec, err)
		return p, false
	}
	if p.X >= side || p.Y >= side {
		fmt.Fprintf(os.Stderr, "dsiquery: -q %s outside the %dx%d grid\n", spec, side, side)
		return p, false
	}
	return p, true
}

func printObjects(ds *dataset.Dataset, ids []int, limit int) {
	for i, id := range ids {
		if i == limit {
			fmt.Printf("  ... and %d more\n", len(ids)-limit)
			return
		}
		o := ds.ByID(id)
		fmt.Printf("  object %5d at %v (hc=%d)\n", o.ID, o.P, o.HC)
	}
}

func printStats(st broadcast.Stats) {
	fmt.Printf("cost: access latency %d bytes, tuning time %d bytes (probe slot %d)\n",
		st.LatencyBytes(), st.TuningBytes(), st.ProbeSlot)
}
