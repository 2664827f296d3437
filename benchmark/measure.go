// Process-level measurement: CPU time of this process and of a child,
// peak resident set, allocation volume, and the order statistics every
// report is reduced with.

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields. It is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of a live process from
// /proc/<pid>/stat. RUSAGE_CHILDREN only covers children already waited
// for, and the station child is still running when it is measured.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns this process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB returns the Go heap still reachable after a collection, in
// MB: what the process retains, as opposed to the garbage between two
// collections that the resident-set peak also counts.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocBytes returns the cumulative bytes allocated on the Go heap.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// usage is one reading of the process-level meters; sub gives the
// consumption between two readings.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	return usage{wall: time.Now(), cpu: selfCPU(), alloc: allocBytes()}
}

func (u usage) sub(start usage) (wall, cpu time.Duration, alloc uint64) {
	return u.wall.Sub(start.wall), u.cpu - start.cpu, u.alloc - start.alloc
}

// median returns the middle value of vs (mean of the middle two for an
// even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the p-quantile of vs by linear interpolation between
// order statistics.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(math.Floor(at))
	hi := int(math.Ceil(at))
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

// percentileLadder are the percentiles a latency report may quote, each
// with the share of samples beyond it, per mille.
var percentileLadder = []struct {
	p    float64
	tail int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile picks the highest rung of the ladder that still has
// at least ten samples beyond it among n samples — a tail percentile
// resting on fewer is one or two outliers, not a statistic. It returns
// 0 when even the median fails the rule.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, rung := range percentileLadder {
		if n*rung.tail >= 10*1000 {
			best = rung.p
		}
	}
	return best
}
