// Command benchmark is the repository's performance instrument: five
// named workloads, their end-to-end metrics with a correctness gate in
// every run, and a separate traced run that attributes each workload to
// the layers under it. See README.md.
//
// Usage (from this directory; the repository root registers
// `bash benchmark/run.sh` in BENCHMARK.json):
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run, result as the last line
//	go run . run     [-workload <name>|all] [-seed n] [-n runs] [-out file]
//	go run . trace   [-workload <name>|all] [-seed n] [-out file] [-trace-out spans.jsonl]
//	go run . repeat  [-n 5] [-workload <name>|all] [-out file]
//	go run . compare A.json B.json
//	go run . manifest                                                   # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		printUsage()
		os.Exit(2)
	}
	// A signal takes the station children down with the benchmark.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(130)
	}()

	var err error
	switch cmd := os.Args[1]; {
	case strings.HasPrefix(cmd, "-"):
		err = cmdDriver(os.Args[1:])
	case cmd == "run":
		err = cmdRun(os.Args[2:], false)
	case cmd == "trace":
		err = cmdRun(os.Args[2:], true)
	case cmd == "repeat":
		err = cmdRepeat(os.Args[2:])
	case cmd == "compare":
		err = cmdCompare(os.Args[2:])
	case cmd == "manifest":
		err = cmdManifest()
	default:
		printUsage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func printUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run|trace [-workload <name>|all] [-seed n] [-seconds s] [-n runs] [-smoke] [-out file] [-trace-out file]
  benchmark repeat [-n 5] [-workload <name>|all] [-seed n] [-seconds s] [-out file]
  benchmark compare A.json B.json
  benchmark manifest`)
	fmt.Fprint(os.Stderr, "workloads:")
	for _, w := range workloads {
		fmt.Fprint(os.Stderr, " ", w.name)
	}
	fmt.Fprintln(os.Stderr)
}

// defaultSeconds is the timed section of one run; BENCHMARK.json's
// run_seconds.
const defaultSeconds = 15

// commonFlags are the knobs every measuring subcommand shares.
type commonFlags struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	tmp      string
	repo     string
	profile  string
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed (1 is the default, 2 the hold-out seed)")
	fs.Float64Var(&c.seconds, "seconds", defaultSeconds, "length of the timed section")
	fs.BoolVar(&c.smoke, "smoke", false, "1/50-size inputs (tests)")
	fs.StringVar(&c.tmp, "tmp", "", "scratch directory (default .bench_build/tmp under the working directory)")
	fs.StringVar(&c.repo, "repo", "", "directory of the dsi module (default: found upward from the working directory)")
	fs.StringVar(&c.profile, "cpuprofile", "", "write a CPU profile of the run to this file (of the last run, when there are several)")
}

// config resolves the flags into a run configuration.
func (c *commonFlags) config() (*runConfig, error) {
	cfg := &runConfig{
		seed: c.seed, seconds: c.seconds, smoke: c.smoke,
		workers: defaultWorkers(), setups: 9, every: 16,
		tmp: c.tmp, repo: c.repo,
	}
	if c.smoke {
		cfg.setups, cfg.every = 1, 2
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.repo == "" {
		dir, err := findRepo()
		if err != nil {
			return nil, err
		}
		cfg.repo = dir
	}
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(".bench_build", "tmp")
	}
	abs, err := filepath.Abs(cfg.tmp)
	if err != nil {
		return nil, err
	}
	cfg.tmp = abs
	return cfg, os.MkdirAll(cfg.tmp, 0o755)
}

// startProfile starts the CPU profile the flags ask for and returns the
// function that ends it.
func (c *commonFlags) startProfile() (func(), error) {
	if c.profile == "" {
		return func() {}, nil
	}
	f, err := os.Create(c.profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// selected returns the workloads the -workload flag names.
func (c *commonFlags) selected() ([]*workload, error) {
	if c.workload == "all" {
		return workloads, nil
	}
	w := findWorkload(c.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	return []*workload{w}, nil
}

// findRepo walks up from the working directory to the directory whose
// go.mod declares module dsi.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.TrimSpace(line) == "module dsi" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module dsi above the working directory; pass -repo")
		}
		dir = parent
	}
}

// measure runs one workload once and never fails without a result: a
// run that could not complete counts as one failed operation.
func measure(w *workload, cfg *runConfig, traced bool) result {
	res, err := runWorkload(w, cfg, traced)
	if err != nil {
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		res.Failed = res.Attempted
		res.Failures = append(res.Failures, err.Error())
	}
	return res
}

// cmdDriver is the BENCHMARK.json contract: one workload, one run, and
// as the last line of standard output one JSON object with the metrics
// BENCHMARK.json registers for this kind of run.
func cmdDriver(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c commonFlags
	c.register(fs)
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced run")
	resFile := fs.String("result", "", "also write the run's full result, as JSON, to this file")
	traceOut := fs.String("trace-out", "", "traced run: file the sampled spans are appended to, as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(c.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	cfg.traceOut = *traceOut
	stop, err := c.startProfile()
	if err != nil {
		return err
	}
	res := measure(w, cfg, *trace == 1)
	stop()
	printResult(os.Stderr, res)
	if *resFile != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*resFile, raw, 0o644); err != nil {
			return err
		}
	}

	line, err := driverLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// driverLine is the result line of the BENCHMARK.json contract: exactly
// the keys correct, attempted, failed and metrics, with every registered
// end-to-end metric for an untraced run and every registered per-layer
// metric for a traced one.
func driverLine(res result) ([]byte, error) {
	defs := universalDefs
	if res.Traced {
		defs = perLayerDefs
	}
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			m = metric{Unit: d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	return json.Marshal(out)
}

// manifest renders BENCHMARK.json from the metric tables.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerM struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	man := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layerM `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		man.Workloads = append(man.Workloads, wl{w.name, w.why})
	}
	for _, d := range universalDefs {
		man.EndToEnd = append(man.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		man.PerLayer = append(man.PerLayer, layerM{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(raw, '\n')
}

// cmdManifest prints BENCHMARK.json as the metric tables define it.
func cmdManifest() error {
	_, err := os.Stdout.Write(manifest())
	return err
}
