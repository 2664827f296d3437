// Command dsibench regenerates the paper's evaluation artifacts: every
// figure (Fig. 8-12), Table 1, the REAL-dataset comparisons, and the
// ablations listed in DESIGN.md.
//
// Usage:
//
//	dsibench -list
//	dsibench -exp fig9 -queries 200
//	dsibench -exp all -queries 100 -verify
//
// Results are printed as aligned text tables, one row per X value and
// one column per series, with byte values in the units the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"dsi/internal/experiment"
	"dsi/internal/hilbert"
	"dsi/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list) or 'all'")
		list     = flag.Bool("list", false, "list available experiments and exit")
		queries  = flag.Int("queries", 100, "queries averaged per data point")
		n        = flag.Int("n", 0, "dataset cardinality (0 = paper default)")
		order    = flag.Uint("order", 0, "Hilbert curve order (0 = paper default)")
		seed     = flag.Int64("seed", 1, "dataset and workload seed")
		verify   = flag.Bool("verify", true, "cross-check every query against brute force")
		csv      = flag.Bool("csv", false, "emit figures as CSV instead of text tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"worker bound for sharding data points and queries (results are identical at any value; 1 = sequential)")
		metrics = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090; empty = off)")
	)
	flag.Parse()
	if *queries < 1 {
		badFlag("-queries %d below 1", *queries)
	}
	if *n < 0 {
		badFlag("-n %d below 0", *n)
	}
	if *order > hilbert.MaxOrder {
		badFlag("-order %d above %d", *order, hilbert.MaxOrder)
	}
	experiment.SetParallelism(*parallel)

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		addr, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsibench: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dsibench: serving /metrics and /debug/pprof on http://%s\n", addr)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range experiment.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	params := experiment.Params{
		N:       *n,
		Order:   *order,
		Seed:    *seed,
		Queries: *queries,
		Verify:  *verify,
		Obs:     reg,
	}

	var names []string
	if *exp == "all" {
		names = experiment.Names()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := experiment.Registry[name]; !ok {
				fmt.Fprintf(os.Stderr, "dsibench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}
	checkGrid(params, names)

	for _, name := range names {
		start := time.Now()
		res := experiment.Registry[name](params)
		fmt.Printf("=== %s (queries/point=%d, seed=%d, workers=%d, %.1fs) ===\n\n",
			name, params.Queries, params.Seed, experiment.Parallelism(), time.Since(start).Seconds())
		if *csv {
			fmt.Print(res.CSV())
			for i := range res.Tables {
				fmt.Print(res.Tables[i].Format())
			}
		} else {
			fmt.Print(res.Format())
		}
	}
}

// checkGrid refuses a run whose datasets do not fit the grid of the
// order it will actually use: n uniform objects, one per cell, and
// the REAL-like dataset's objects at most every other cell when the
// real experiment runs. It also refuses a dataset too small for the
// broadcasts the experiments lay out (experiment.MinObjects).
func checkGrid(p experiment.Params, names []string) {
	uni := p.Defaults()
	cells := uint64(1) << (2 * uni.Order)
	switch min, by := experiment.MinObjects(names); {
	case uni.N < min:
		badFlag("-n %d below %d, the fewest objects the %s experiment can lay out", uni.N, min, by)
	case uint64(uni.N) <= cells:
	case p.N != 0:
		badFlag("-n %d outside [1,%d], the cells of an order-%d grid", p.N, cells, uni.Order)
	default:
		badFlag("-order %d too small for the default %d objects", uni.Order, uni.N)
	}
	if !slices.Contains(names, "real") {
		return
	}
	p.Real = true
	cl := p.Defaults()
	switch {
	case 2*uint64(cl.N) <= cells:
	case p.N != 0:
		badFlag("-n %d too large for the REAL-like dataset on an order-%d grid (at most %d)", p.N, cl.Order, cells/2)
	default:
		badFlag("-order %d too small for the REAL-like dataset's %d objects", cl.Order, cl.N)
	}
}

// badFlag reports an unusable flag value as one line and exits with
// status 2, as the flag package does for a malformed one.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsibench: "+format+"\n", args...)
	os.Exit(2)
}
