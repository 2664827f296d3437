// compare and repeat: reading result sets. compare judges a change
// against its parent, metric by metric and workload by workload; repeat
// measures how far one commit's own runs scatter.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// verdict is compare's judgement of one (workload, metric) row.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// minRuns is how many runs per workload a set needs before its medians
// and quartiles mean anything.
const minRuns = 5

// judge compares the change's readings b with the parent's readings a
// under the metric's definition.
//
// The worsening is the distance between the medians in the metric's bad
// direction, as a share of the parent's median (or absolute, for ratios
// that sit at 0 or 1). The spread is the wider of the two sets'
// interquartile distances on the same scale.
//
//   - regressed: the worsening exceeds the bound — unless the spread
//     also exceeds it and the two sets overlap, which is unresolved (an
//     exact metric, bound 0, has no such excuse);
//   - improved: the medians differ, in the good direction, by more than
//     the parent's own spread, and the change wins at least nine tenths
//     of all (parent run, change run) pairs;
//   - unresolved: neither, but the spread exceeds the bound, so a
//     regression of the bound's size could hide in it;
//   - unchanged: otherwise.
func judge(def metricDef, a, b []float64) (v verdict, worsening, spread float64) {
	ma, mb := median(a), median(b)
	scale := ma
	if scale < 0 {
		scale = -scale
	}
	if def.Abs || scale == 0 {
		scale = 1
	}
	sign := 1.0 // lower is better: growing is worsening
	if def.Better == "higher" {
		sign = -1
	}
	worsening = sign * (mb - ma) / scale
	spreadA, spreadB := iqr(a)/scale, iqr(b)/scale
	spread = spreadA
	if spreadB > spread {
		spread = spreadB
	}

	// Pairwise: how often a run of the change beats a run of the parent.
	wins, losses := 0, 0
	for _, x := range a {
		for _, y := range b {
			switch d := sign * (y - x); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	pairs := len(a) * len(b)
	switch {
	case worsening > def.Bound:
		if def.Bound > 0 && spread > def.Bound && losses < pairs {
			return unresolved, worsening, spread
		}
		return regressed, worsening, spread
	case worsening < 0 && -worsening > spreadA && wins*10 >= pairs*9:
		return improved, worsening, spread
	case spread > def.Bound && wins < pairs:
		return unresolved, worsening, spread
	}
	return unchanged, worsening, spread
}

// quartiles returns the three quartile cut points of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method),
// so spreads read the same here and in the driver.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// iqr is the distance between the first and the third quartile.
func iqr(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	return q3 - q1
}

// column collects one metric's readings over a workload's runs in a set.
func (s *resultSet) column(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// unitOf returns the unit a workload's runs report a metric in.
func (s *resultSet) unitOf(workload, name string) string {
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			return m.Unit
		}
	}
	return ""
}

// workloadsOf lists the workloads a set has runs of, in registry order.
func (s *resultSet) workloadsOf() []string {
	seen := map[string]bool{}
	for _, r := range s.Runs {
		seen[r.Workload] = true
	}
	var out []string
	for _, w := range workloads {
		if seen[w.name] {
			out = append(out, w.name)
		}
	}
	return out
}

// metricsOf lists the metric names a workload's runs carry: end-to-end
// metrics first, in definition order, then the rest sorted.
func (s *resultSet) metricsOf(workload string) []string {
	have := map[string]bool{}
	for _, r := range s.Runs {
		if r.Workload == workload {
			for name := range r.Metrics {
				have[name] = true
			}
		}
	}
	var out []string
	for _, defs := range [][]metricDef{universalDefs, workloadDefs} {
		for _, d := range defs {
			if have[d.Name] {
				out = append(out, d.Name)
				delete(have, d.Name)
			}
		}
	}
	var rest []string
	for name := range have {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// failedOps sums a workload's failed operations over a set.
func (s *resultSet) failedOps(workload string) int {
	n := 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// compareSets prints the comparison of b (the change) against a (the
// parent) and returns how many rows regressed.
func compareSets(w io.Writer, a, b *resultSet) (regressions int, err error) {
	fmt.Fprintf(w, "parent: commit %s, %s, go %s, seed %d\n", a.Env.Commit, a.Env.CPUModel, a.Env.Go, a.Env.Seed)
	fmt.Fprintf(w, "change: commit %s, %s, go %s, seed %d\n", b.Env.Commit, b.Env.CPUModel, b.Env.Go, b.Env.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1,q3]\tchange median [q1,q3]\tchange/parent\tworsening\tspread\tbound\tverdict")
	for _, wl := range a.workloadsOf() {
		for _, name := range a.metricsOf(wl) {
			av, bv := a.column(wl, name), b.column(wl, name)
			if len(bv) == 0 {
				continue
			}
			if len(av) < minRuns || len(bv) < minRuns {
				return regressions, fmt.Errorf("%s %s: %d and %d runs; compare needs at least %d of each", wl, name, len(av), len(bv), minRuns)
			}
			unit := a.unitOf(wl, name)
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			ratio := "-"
			if am != 0 {
				// Every ratio with its base: the parent's median.
				ratio = fmt.Sprintf("%.4f of %.6g", bm/am, am)
			}
			def, judged := endToEndDef(name)
			if !judged {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g,%.6g]\t%.6g [%.6g,%.6g]\t%s\t-\t-\t-\t-\n",
					wl, name, unit, am, aq1, aq3, bm, bq1, bq3, ratio)
				continue
			}
			v, worse, spread := judge(def, av, bv)
			if v == regressed {
				regressions++
			}
			kind := "share"
			if def.Abs {
				kind = "abs"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g,%.6g]\t%.6g [%.6g,%.6g]\t%s\t%+.4f\t%.4f\t%g %s\t%s\n",
				wl, name, unit, am, aq1, aq3, bm, bq1, bq3, ratio, worse, spread, def.Bound, kind, v)
		}
		if fa, fb := a.failedOps(wl), b.failedOps(wl); fb > fa {
			fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d\t%d\t-\t-\t-\t-\t%s\n", wl, fa, fb, regressed)
			regressions++
		}
	}
	return regressions, tw.Flush()
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes two result files: parent.json change.json")
	}
	a, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	b, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	regressions, err := compareSets(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressed", regressions)
	}
	return nil
}

// repeatLimit is the run-to-run scatter, (max-min)/median, beyond which
// an end-to-end metric is too loose to carry a bound on this box.
const repeatLimit = 0.10

// reportSpread prints, per (workload, end-to-end metric), how far the
// set's runs scatter.
func reportSpread(w io.Writer, s *resultSet) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian\tmin\tmax\t(max-min)/median\tiqr/median\tbound\tnote")
	for _, wl := range s.workloadsOf() {
		for _, name := range s.metricsOf(wl) {
			def, ok := endToEndDef(name)
			if !ok {
				continue
			}
			vs := s.column(wl, name)
			if len(vs) == 0 {
				continue
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			lo, hi, med := sorted[0], sorted[len(sorted)-1], median(vs)
			scale := med
			if def.Abs || scale == 0 {
				scale = 1
			}
			scatter, spread := (hi-lo)/scale, iqr(vs)/scale
			note := ""
			switch {
			case def.Abs:
				if hi-lo > def.Bound {
					note = "scatter exceeds the absolute bound"
				}
			case scatter > repeatLimit:
				note = fmt.Sprintf("scatter exceeds %.2f", repeatLimit)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.4f\t%g\t%s\n",
				wl, name, s.unitOf(wl, name), len(vs), med, lo, hi, scatter, spread, def.Bound, note)
		}
	}
	return tw.Flush()
}

func cmdRepeat(args []string) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	var c commonFlags
	c.register(fs)
	n := fs.Int("n", minRuns, "runs per workload")
	out := fs.String("out", "", "result file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, runErr := runSet(&c, *n, false, "")
	if set == nil {
		return runErr
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			return err
		}
	}
	if err := reportSpread(os.Stdout, set); err != nil {
		return err
	}
	return runErr
}
