// Package model provides closed-form cost expectations for a DSI
// broadcast: cycle length, index overhead, and the expected cost of
// energy-efficient forwarding. The formulas support design-space
// exploration (choosing capacity, object factor, and index base)
// without simulation, and the tests validate them against the
// simulator within tolerance — a consistency check between the
// implementation and the paper's analytical intuition that forwarding
// is "logically like a binary search".
package model

import (
	"math"

	"dsi/internal/dsi"
)

// DSICost summarizes the expected costs of a DSI broadcast.
type DSICost struct {
	// CyclePackets is the broadcast cycle length in packets.
	CyclePackets int
	// CycleBytes is the cycle length in bytes.
	CycleBytes int64
	// IndexOverhead is the fraction of the cycle spent on index tables.
	IndexOverhead float64
	// ExpEEFTables is the expected number of index tables a point query
	// reads on the original (m=1) broadcast, assuming a uniformly
	// distributed target: one initial table plus the expected digit sum
	// of the forward distance written in base r (each hop follows the
	// largest useful entry, so a distance D = sum d_i r^i costs
	// sum d_i hops).
	ExpEEFTables float64
	// ExpPointLatencyPackets is the expected access latency of a point
	// query in packets: half a frame to sync after the probe, half a
	// cycle of expected travel, plus the target frame itself.
	ExpPointLatencyPackets float64
	// ExpPointTuningPackets is the expected tuning time of a point
	// query in packets: the probe, the tables read while forwarding,
	// and the object's packets.
	ExpPointTuningPackets float64
}

// AnalyzeDSI computes the cost model of a built index.
func AnalyzeDSI(x *dsi.Index) DSICost {
	var c DSICost
	c.CyclePackets = x.CycleSlots()
	c.CycleBytes = x.CycleBytes()
	c.IndexOverhead = float64(x.NF*x.TablePackets) / float64(c.CyclePackets)
	c.ExpEEFTables = 1 + expDigitSum(x.NF, x.Base, x.E)
	c.ExpPointLatencyPackets = float64(x.FramePackets)/2 +
		float64(c.CyclePackets)/2 + float64(x.FramePackets)
	c.ExpPointTuningPackets = 1 + c.ExpEEFTables*float64(x.TablePackets) +
		float64(x.ObjPackets) + headerScanCost(x)
	return c
}

// expDigitSum returns the expected digit sum of a uniform distance in
// [0, nf) written in base r with at most e digits. Digits above the
// e-th cannot be expressed by a single entry and cost one hop per r^e
// span (the client re-reads a table every r^(e-1) frames at most); for
// the coverage-complete sizings used here, r^e >= nf and the plain
// digit-sum expectation applies.
func expDigitSum(nf, r, e int) float64 {
	if nf <= 1 {
		return 0
	}
	span := math.Pow(float64(r), float64(e))
	digits := float64(e)
	if span < float64(nf) {
		// Truncated coverage: the residual distance is walked in
		// full-span hops.
		extra := float64(nf) / span / 2
		return digits*float64(r-1)/2 + extra
	}
	// Expected number of base-r digits of a uniform value in [0, nf).
	digits = math.Log(float64(nf)) / math.Log(float64(r))
	return digits * float64(r-1) / 2
}

// headerScanCost estimates the extra header packets a point query reads
// inside a multi-object frame: half the frame's objects on average.
func headerScanCost(x *dsi.Index) float64 {
	if x.NO <= 1 {
		return 0
	}
	return float64(x.NO) / 2
}

// LayoutCost summarizes a distributed tree layout analytically (the
// quantities air.BuildLayout optimizes over).
type LayoutCost struct {
	CyclePackets  int
	IndexOverhead float64
	// ProbeWaitPackets is the expected wait for the next index segment.
	ProbeWaitPackets float64
}

// AnalyzeLayout computes layout-level costs from first principles.
func AnalyzeLayout(cyclePackets, indexPackets, segments int) LayoutCost {
	return LayoutCost{
		CyclePackets:     cyclePackets,
		IndexOverhead:    float64(indexPackets) / float64(cyclePackets),
		ProbeWaitPackets: float64(cyclePackets) / float64(2*segments),
	}
}
