package dsi

import (
	"runtime"
	"strings"
)

// heapUse is what a function allocated on its own call stack: objects,
// bytes, and the bytes of those still live once the collector has run.
type heapUse struct{ allocs, bytes, live int64 }

// ownHeap measures what f allocates itself, as the heap profile —
// sampling every allocation while it runs — attributes allocations to
// f's call stack. Differences of runtime.MemStats counters would also
// count what other goroutines and the runtime allocate meanwhile, and
// an OS thread the runtime starts mid-test costs about 5.5 KB of heap
// records that stay live; allocations under runtime.allocm are not f's.
// Allocations of an earlier ownHeap call that die during this one count
// against it, so a caller keeps or drops what it measured before the
// next call.
func ownHeap(f func()) heapUse {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := ownRecords()
	measured(f)
	after := ownRecords()
	return heapUse{
		allocs: after.allocs - before.allocs,
		bytes:  after.bytes - before.bytes,
		live:   after.live - before.live,
	}
}

// measured runs f: the frame that marks f's allocations in the profile.
//
//go:noinline
func measured(f func()) { f() }

// ownRecords sums the profile's records of allocations made under a
// measured frame: allocated objects and bytes, and bytes still live. A
// profile is published up to two collections late, so three collections
// run first.
func ownRecords() heapUse {
	for range 3 {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	var u heapUse
	for i := range recs {
		r := &recs[i]
		mine := false
		for _, pc := range r.Stack() {
			name := runtime.FuncForPC(pc - 1).Name()
			if name == "runtime.allocm" {
				mine = false
				break
			}
			mine = mine || strings.HasSuffix(name, "/dsi.measured")
		}
		if mine {
			u.allocs += r.AllocObjects
			u.bytes += r.AllocBytes
			u.live += r.AllocBytes - r.FreeBytes
		}
	}
	return u
}
