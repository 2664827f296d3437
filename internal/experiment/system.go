// Package experiment reproduces the paper's evaluation: every figure
// (Fig. 8-12) and table (Table 1) of section 4 and 5, plus the REAL-
// dataset comparisons reported in the text and the ablations called out
// in DESIGN.md.
//
// The package wraps the three air-index implementations behind a common
// System interface, generates seeded workloads, runs them with identical
// query sequences against every system, and formats the results as the
// paper reports them (average access latency and tuning time in bytes).
package experiment

import (
	"fmt"
	"sync/atomic"

	"dsi/internal/air"
	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/station"
)

// System is an air index under evaluation.
type System interface {
	// Name identifies the system in tables ("DSI", "R-tree", "HCI", ...).
	Name() string
	// Window answers a window query from the given absolute probe slot.
	Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
	// KNN answers a k-nearest-neighbor query.
	KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
	// CycleLen returns the broadcast cycle length in packets, used to
	// draw uniform probe slots.
	CycleLen() int
}

// QuerySession answers queries one at a time with reusable state: a
// worker holds one session and replays queries through it, so per-query
// setup (client knowledge bases, scratch buffers) is recycled instead
// of reallocated. Result slices are only valid until the session's next
// query. Sessions are not safe for concurrent use; mint one per worker.
type QuerySession interface {
	Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
	KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
}

// SessionSystem is a System that keeps reusable query sessions in a
// per-worker arena: worker w always gets the session pinned to slot w,
// so session state (and its client) survives across workload runs with
// no pool traffic at all. Systems without sessions are queried
// statelessly.
type SessionSystem interface {
	System
	AcquireSession(worker int) QuerySession
	ReleaseSession(worker int, s QuerySession)
}

// statelessSession adapts a plain System to the session interface.
type statelessSession struct{ sys System }

func (s statelessSession) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.sys.Window(w, probe, loss)
}

func (s statelessSession) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.sys.KNN(q, k, probe, loss)
}

// DSISystem is the one session-backed DSI system: every way the
// harness queries a DSI broadcast — the simulator over any layout, the
// byte-level receivers over a packet source, the coded receiver — is
// this type with a different mint. It pins one reusable session per
// worker; use it by pointer.
type DSISystem struct {
	Label    string
	Strategy dsi.Strategy

	cycle int // slots probe positions are drawn from
	// mint assembles a fresh session over the system's receiver kind.
	// Arena mints count into dsiSessionsMinted at the acquire site;
	// stateless throwaway sessions stay uncounted so the reuse tests'
	// exact bounds hold.
	mint     func() *sessionAdapter
	sessions sessionArena // pinned per worker
}

// newSimSystem runs queries through the simulator (dsi.SimReceiver)
// over a layout. Probe slots are drawn over the layout's total slot
// count across channels (see Layout.ProbeCycle — drawing over just the
// start channel's short cycle would pin the long data channels near
// phase zero and bias every measured wait).
func newSimSystem(label string, lay *dsi.Layout, strat dsi.Strategy) *DSISystem {
	return &DSISystem{Label: label, Strategy: strat, cycle: lay.ProbeCycle(),
		mint: func() *sessionAdapter {
			sess, err := dsi.Open(lay.X, dsi.WithLayout(lay))
			if err != nil {
				panic(fmt.Sprintf("experiment: opening DSI session: %v", err))
			}
			return &sessionAdapter{s: sess}
		}}
}

// newWireSystem runs queries through byte-level receivers
// (station.WireReceiver) over a static packet source: the session
// facade's WithReceiver path under the standard harness.
func newWireSystem(label string, lay *dsi.Layout, src station.PacketSource, strat dsi.Strategy) *DSISystem {
	return &DSISystem{Label: label, Strategy: strat, cycle: lay.ProbeCycle(),
		mint: func() *sessionAdapter {
			rx, err := station.NewWireReceiver(lay, 1, src, 0, nil)
			if err != nil {
				panic(fmt.Sprintf("experiment: wire receiver: %v", err))
			}
			return &sessionAdapter{s: openOver(lay.X, rx)}
		}}
}

// openOver opens a session over a prebuilt receiver.
func openOver(x *dsi.Index, rx dsi.Receiver) *dsi.Session {
	sess, err := dsi.Open(x, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening receiver session: %v", err))
	}
	return sess
}

// NewDSI builds a DSI system over the single-channel layout — the N = 1
// case of NewMultiDSI. The label defaults to "DSI".
func NewDSI(ds *dataset.Dataset, cfg dsi.Config, strat dsi.Strategy, label string) (*DSISystem, error) {
	if label == "" {
		label = "DSI"
	}
	return NewMultiDSI(ds, cfg, dsi.MultiConfig{Channels: 1}, strat, label)
}

// NewMultiDSI builds a DSI broadcast and places it on mc.Channels
// parallel channels with the configured scheduler.
func NewMultiDSI(ds *dataset.Dataset, cfg dsi.Config, mc dsi.MultiConfig, strat dsi.Strategy, label string) (*DSISystem, error) {
	x, err := dsi.Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	lay, err := dsi.NewLayout(x, mc)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = fmt.Sprintf("DSI/%vx%d", mc.Scheduler, mc.Channels)
	}
	return newSimSystem(label, lay, strat), nil
}

func (s *DSISystem) Name() string { return s.Label }

func (s *DSISystem) CycleLen() int { return s.cycle }

// session mints a fresh session running kNN with the system's strategy.
func (s *DSISystem) session() *sessionAdapter {
	a := s.mint()
	a.strat = s.Strategy
	return a
}

func (s *DSISystem) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.session().Window(w, probe, loss)
}

func (s *DSISystem) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.session().KNN(q, k, probe, loss)
}

// dsiSessionsMinted counts sessions constructed from scratch, so tests
// can assert that workloads reuse sessions instead of re-minting them.
var dsiSessionsMinted atomic.Int64

// AcquireSession returns worker's pinned session around one long-lived
// dsi.Session that is re-tuned between queries: identical results and
// metrics to fresh clients, without re-allocating the page tables and
// stamp pages of a knowledge base per query.
func (s *DSISystem) AcquireSession(worker int) QuerySession {
	return s.sessions.acquire(worker, func() QuerySession {
		dsiSessionsMinted.Add(1)
		return s.session()
	})
}

// ReleaseSession checks the session back into its worker slot.
func (s *DSISystem) ReleaseSession(worker int, q QuerySession) { s.sessions.release(worker, q) }

// sessionAdapter adapts a dsi.Session to the harness's QuerySession:
// re-tune per query, recycle the result buffer, run kNN with the
// system's strategy. forget, when set, drops receiver state that
// outlives a re-tune (the coded receiver's recovered-unit cache), so
// every query is independent of which worker ran which earlier one and
// figures are bit-identical at any parallelism.
type sessionAdapter struct {
	s      *dsi.Session
	strat  dsi.Strategy
	forget func()
	buf    []int
}

func (a *sessionAdapter) tune(probe int64, loss *broadcast.LossModel) {
	if a.forget != nil {
		a.forget()
	}
	a.s.Tune(probe, loss)
}

func (a *sessionAdapter) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	a.tune(probe, loss)
	ids, st := a.s.WindowAppend(a.buf[:0], w)
	a.buf = ids
	return ids, st
}

func (a *sessionAdapter) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	a.tune(probe, loss)
	ids, st := a.s.KNNAppend(a.buf[:0], q, k, a.strat)
	a.buf = ids
	return ids, st
}

// RTreeSystem is the on-air STR R-tree baseline.
type RTreeSystem struct{ B *air.RTreeBroadcast }

// NewRTree builds the R-tree baseline (fails at 32-byte packets).
func NewRTree(ds *dataset.Dataset, capacity, objectBytes int) (*RTreeSystem, error) {
	b, err := air.NewRTreeBroadcast(ds, capacity, objectBytes)
	if err != nil {
		return nil, err
	}
	return &RTreeSystem{B: b}, nil
}

func (s *RTreeSystem) Name() string { return "R-tree" }

func (s *RTreeSystem) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.B.Window(w, probe, loss)
}

func (s *RTreeSystem) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.B.KNN(q, k, probe, loss)
}

func (s *RTreeSystem) CycleLen() int { return s.B.Lay.Prog.Len() }

// HCISystem is the on-air Hilbert Curve Index baseline.
type HCISystem struct{ B *air.HCIBroadcast }

// NewHCI builds the HCI baseline.
func NewHCI(ds *dataset.Dataset, capacity, objectBytes int) (*HCISystem, error) {
	b, err := air.NewHCIBroadcast(ds, capacity, objectBytes)
	if err != nil {
		return nil, err
	}
	return &HCISystem{B: b}, nil
}

func (s *HCISystem) Name() string { return "HCI" }

func (s *HCISystem) Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.B.Window(w, probe, loss)
}

func (s *HCISystem) KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats) {
	return s.B.KNN(q, k, probe, loss)
}

func (s *HCISystem) CycleLen() int { return s.B.Lay.Prog.Len() }

func mustSys(s System, err error) System {
	if err != nil {
		panic(fmt.Sprintf("experiment: building system: %v", err))
	}
	return s
}
