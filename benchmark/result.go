// Result files: a set of runs under an environment header, the form
// `run`, `trace` and `repeat` write and `compare` reads, and the first
// point of the committed trajectory (results/BENCH_<sha>.json).

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// environment is the header of a result file: what the numbers were
// measured on.
type environment struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// resultSet is a result file.
type resultSet struct {
	Env  environment `json:"env"`
	Runs []result    `json:"runs"`
}

func readEnvironment(cfg *runConfig) environment {
	env := environment{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Workers: cfg.workers, Smoke: cfg.smoke,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.repo
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func (s *resultSet) write(path string) error {
	raw, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printResult writes one run as a table: every metric by name, with its
// unit, and the correctness verdict.
func printResult(w io.Writer, res result) {
	kind := "end-to-end, tracing off"
	if res.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d operations, %d failed\n", res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range res.Metrics.names() {
		m := res.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// runSet runs every selected workload n times, workloads interleaved so
// that slow drift of the box spreads over all of them, and returns the
// set. Every run is a process of its own, as under the driver: the
// memory metrics (resident-set peak, retained heap) and process-wide
// caches of one run must not leak into the next. The error reports
// failed operations; the set is complete either way.
func runSet(c *commonFlags, n int, traced bool, traceOut string) (*resultSet, error) {
	ws, err := c.selected()
	if err != nil {
		return nil, err
	}
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Env: readEnvironment(cfg)}
	failed := 0
	for i := 0; i < n; i++ {
		for _, w := range ws {
			res := runChild(self, w, c, cfg, traced, traceOut)
			set.Runs = append(set.Runs, res)
			failed += res.Failed
		}
	}
	if failed > 0 {
		err = fmt.Errorf("%d operations failed", failed)
	}
	return set, err
}

// runChild measures one workload once in a child process (the driver
// form of this program) and reads its full result back from a file. The
// child's table goes to our standard output; a child that dies without a
// result counts as one failed operation.
func runChild(self string, w *workload, c *commonFlags, cfg *runConfig, traced bool, traceOut string) result {
	resFile := filepath.Join(cfg.tmp, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(resFile)
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"--workload", w.name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", trace,
		"-result", resFile, "-tmp", cfg.tmp, "-repo", cfg.repo,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	if c.profile != "" {
		args = append(args, "-cpuprofile", c.profile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stdout // the child prints its table on stderr
	runErr := cmd.Run()    // a non-zero exit is failed operations; the file says how many

	res := result{Workload: w.name, Seed: cfg.seed, Traced: traced}
	raw, err := os.ReadFile(resFile)
	if err == nil {
		err = json.Unmarshal(raw, &res)
	}
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.Failures = []string{fmt.Sprintf("no result from child (%v): %v", runErr, err)}
	}
	return res
}

// cmdRun is `run` (end-to-end) and `trace` (per-layer).
func cmdRun(args []string, traced bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var c commonFlags
	c.register(fs)
	n := fs.Int("n", 1, "runs per workload")
	out := fs.String("out", "", "result file to write")
	traceOut := fs.String("trace-out", "", "trace: file the sampled spans are appended to, as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, runErr := runSet(&c, *n, traced, *traceOut)
	if set != nil && *out != "" {
		if err := set.write(*out); err != nil {
			return err
		}
	}
	return runErr
}
