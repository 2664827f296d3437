package experiment

import (
	"reflect"
	"testing"

	"dsi/internal/dsi"
)

// TestParallelBitIdentical is the parallel harness's core guarantee:
// for a fixed seed, every registered experiment produces bit-identical
// figures and tables on many workers and fully sequentially — each work
// item is independent of which worker ran which earlier one. massive is
// the one exclusion: its table carries a wall-clock clients/s column.
func TestParallelBitIdentical(t *testing.T) {
	p := Params{N: 300, Order: 6, Seed: 11, Queries: 6, Verify: true}
	defer SetParallelism(Parallelism())

	for _, name := range Names() {
		if name == "massive" {
			continue
		}
		fn := Registry[name]
		SetParallelism(1)
		seq := fn(p)
		SetParallelism(8)
		par := fn(p)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel result differs from sequential:\nseq:\n%s\npar:\n%s",
				name, seq.Format(), par.Format())
		}
	}
}

// TestWorkloadParallelMatchesSequential checks raw metrics equality at
// the workload level across several parallelism settings, including
// under the loss model (whose per-query seeds must make corruption
// independent of scheduling).
func TestWorkloadParallelMatchesSequential(t *testing.T) {
	p := Params{N: 300, Order: 6, Seed: 5, Queries: 16, Verify: true}
	ds := p.Dataset()
	defer SetParallelism(Parallelism())

	for _, theta := range []float64{0, 0.3} {
		wl := p.workload(ds)
		wl.Theta = theta
		sys := mustSys(NewDSI(ds, dsi.Config{Capacity: 64, Segments: 2}, dsi.Conservative, ""))

		SetParallelism(1)
		seqW := wl.RunWindow(sys, 0.1)
		seqK := wl.RunKNN(sys, 5)
		for _, workers := range []int{2, 4, 16} {
			SetParallelism(workers)
			if got := wl.RunWindow(sys, 0.1); got != seqW {
				t.Errorf("theta=%v workers=%d: window %v != sequential %v", theta, workers, got, seqW)
			}
			if got := wl.RunKNN(sys, 5); got != seqK {
				t.Errorf("theta=%v workers=%d: kNN %v != sequential %v", theta, workers, got, seqK)
			}
		}
	}
}

// TestHCIKNNBoundaryExact runs the paper-scale HCI kNN workload that
// once crashed with "slice bounds out of range": the k-th phase-1
// object sat exactly on the search bound, and the sqrt-then-resquare
// radius round-trip excluded it from the closed disk. The bound is now
// kept squared end to end; Verify cross-checks every answer.
func TestHCIKNNBoundaryExact(t *testing.T) {
	p := Params{Queries: 10, Verify: true}.withDefaults() // paper scale: N=10000, order 8
	ds := p.Dataset()
	wl := p.workload(ds)
	sys := mustSys(NewHCI(ds, 64, p.ObjectBytes))
	m := wl.RunKNN(sys, 3)
	if m.LatencyBytes <= 0 || m.TuningBytes <= 0 {
		t.Fatalf("degenerate metrics %v", m)
	}
}

// TestSessionReuseAcrossWorkload verifies sessions actually get reused:
// the system's idle stack mints at most one session per worker across
// every workload run over it. A run may finish on fewer workers than
// Parallelism (a fast worker drains the queue), and a later run with
// more workers at once legitimately mints the difference, so the bound
// is on the total, not on what the second run adds. Unlike a
// sync.Pool — whose reuse is randomized under the race detector — the
// stack's bound is deterministic in every build.
func TestSessionReuseAcrossWorkload(t *testing.T) {
	p := Params{N: 300, Order: 6, Seed: 9, Queries: 32, Verify: true}
	ds := p.Dataset()
	sys, err := NewDSI(ds, dsi.Config{Capacity: 64, Segments: 2}, dsi.Conservative, "")
	if err != nil {
		t.Fatal(err)
	}

	wl := p.workload(ds)
	before := dsiSessionsMinted.Load()
	wl.RunWindow(sys, 0.1)
	first := dsiSessionsMinted.Load() - before
	if first == 0 {
		t.Fatal("no sessions minted")
	}
	wl.RunKNN(sys, 5)
	total := dsiSessionsMinted.Load() - before
	if total > int64(Parallelism()) {
		t.Errorf("two workload runs of %d queries minted %d sessions (%d in the first); parallelism %d",
			p.Queries, total, first, Parallelism())
	}
}

// BenchmarkParallelReplay measures the parallel replay core over a
// warm system and asserts the reuse contract: after the first run has
// left a session per worker on the idle stack, replays mint nothing in
// the steady state the figure sweeps run in.
func BenchmarkParallelReplay(b *testing.B) {
	p := Params{N: 500, Order: 7, Seed: 13, Queries: 64}
	ds := p.Dataset()
	sys := mustSys(NewDSI(ds, dsi.Config{Capacity: 64, Segments: 2}, dsi.Conservative, ""))
	wl := p.workload(ds)
	wl.RunWindow(sys, 0.1) // warm: one idle session per worker
	before := dsiSessionsMinted.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.RunWindow(sys, 0.1)
	}
	b.StopTimer()
	if minted := dsiSessionsMinted.Load() - before; minted != 0 {
		b.Fatalf("replay minted %d sessions after warmup; the idle stack must serve every worker", minted)
	}
}
