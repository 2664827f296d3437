package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// parallelism is the bound on concurrently executing query
// simulations across the whole package. It defaults to the machine's
// CPU count. tokens is the global semaphore enforcing it: figure
// sweeps fan out without holding tokens (they only orchestrate and
// build indexes), while every leaf query execution holds one, so
// nested fan-out (a sweep of data points each running a parallel
// workload) never exceeds the bound in actual work.
var (
	parallelism atomic.Int64
	tokensMu    sync.Mutex
	tokens      chan struct{}
)

func init() {
	n := runtime.GOMAXPROCS(0)
	parallelism.Store(int64(n))
	tokens = make(chan struct{}, n)
}

// SetParallelism bounds the number of concurrently executing query
// simulations across all of the harness's worker pools. n < 1 is
// treated as 1 (fully sequential). Results are bit-identical at every
// setting: every work item is independent and deterministic, and
// aggregation always happens in item order.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
	tokensMu.Lock()
	tokens = make(chan struct{}, n)
	tokensMu.Unlock()
}

// Parallelism returns the current worker bound.
func Parallelism() int { return int(parallelism.Load()) }

// queryTokens snapshots the current semaphore. Holders release into
// the snapshot they acquired from, so SetParallelism mid-run cannot
// strand or deadlock in-flight workers.
func queryTokens() chan struct{} {
	tokensMu.Lock()
	defer tokensMu.Unlock()
	return tokens
}

// parallelWorkers runs up to min(Parallelism(), n) workers, each
// repeatedly pulling item indices from next until they are exhausted,
// and waits for all of them. A panic in any worker stops the pool and
// is re-raised on the caller's goroutine.
func parallelWorkers(n int, worker func(next func() (int, bool))) {
	w := Parallelism()
	if w > n {
		w = n
	}
	var cursor atomic.Int64
	if w <= 1 {
		worker(func() (int, bool) {
			i := int(cursor.Add(1)) - 1
			return i, i < n
		})
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	next := func() (int, bool) {
		if panicked.Load() != nil {
			return 0, false
		}
		i := int(cursor.Add(1)) - 1
		return i, i < n
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Keep the worker's stack: the re-raise on the
					// caller's goroutine would otherwise lose the
					// origin of the failure.
					r2 := any(fmt.Sprintf("experiment: worker panic: %v\n%s", r, debug.Stack()))
					panicked.CompareAndSwap(nil, &r2)
				}
			}()
			worker(next)
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// parallelEach runs fn(0..n-1) on the worker pool and waits for all of
// them. Item order is unspecified, so fn must write results into
// per-index slots. Callers at the orchestration level (figure sweeps)
// use this directly; it does not consume query tokens.
func parallelEach(n int, fn func(i int)) {
	parallelWorkers(n, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			fn(i)
		}
	})
}

// sweep computes n independent data points on the worker pool and
// returns them in index order — the building block figure experiments
// use to shard their X axes.
func sweep[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	parallelEach(n, func(i int) { out[i] = fn(i) })
	return out
}
