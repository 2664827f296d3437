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
	"sync"
	"sync/atomic"

	"dsi/internal/air"
	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// System is an air index under evaluation. It lends query sessions:
// a replay worker acquires one, answers its share of the workload
// through it, and releases it when it drains.
type System interface {
	// Name identifies the system in tables ("DSI", "R-tree", "HCI", ...).
	Name() string
	// CycleLen returns the broadcast cycle length in packets, used to
	// draw uniform probe slots.
	CycleLen() int
	// Acquire lends a session for the caller's exclusive use.
	Acquire() QuerySession
	// Release takes back a session Acquire lent.
	Release(QuerySession)
}

// QuerySession answers queries one at a time from the given absolute
// probe slot. A session may keep reusable state (client knowledge
// bases, scratch buffers) across queries; result slices are only valid
// until its next query, and it is not safe for concurrent use unless
// its system says so.
type QuerySession interface {
	Window(w spatial.Rect, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
	KNN(q spatial.Point, k int, probe int64, loss *broadcast.LossModel) ([]int, broadcast.Stats)
}

// DSISystem is the one session-backed DSI system: every way the
// harness queries a DSI broadcast — the simulator over any layout, the
// byte-level receivers over a packet source, the coded receiver — is
// this type with a different mint. Idle sessions wait on one stack;
// use it by pointer.
type DSISystem struct {
	Label    string
	Strategy dsi.Strategy

	cycle int                    // slots probe positions are drawn from
	mint  func() *sessionAdapter // a fresh session over the system's receiver kind

	mu   sync.Mutex
	idle []*sessionAdapter
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
	rx := wireRx{lay: lay, src: src}
	return &DSISystem{Label: label, Strategy: strat, cycle: lay.ProbeCycle(),
		mint: func() *sessionAdapter { return rx.open(0, nil) }}
}

// wireRx describes a byte-level session: a client tuning in with
// layout lay as its catalog (directory version 1) over source src,
// decoding code cfg (the zero code is the plain wire receiver). reg, when
// set, instruments the receiver; horizon, when positive, aborts every
// query past that many latency packets (see censorReceiver).
type wireRx struct {
	lay     *dsi.Layout
	src     station.PacketSource
	cfg     wire.FECConfig
	reg     *obs.Registry
	horizon int64
}

// open mints the receiver tuned in at probe under loss and opens a
// session over it. The session forgets the receiver's recovered-unit
// cache on every re-tune, so no query depends on earlier ones.
func (w wireRx) open(probe int64, loss *broadcast.LossModel) *sessionAdapter {
	frx, err := station.NewFECReceiver(w.lay, 1, w.src, w.cfg, probe, loss)
	if err != nil {
		panic(fmt.Sprintf("experiment: wire receiver: %v", err))
	}
	var rx dsi.Receiver = frx
	if w.reg != nil {
		if w.cfg.Enabled() {
			frx.SetObs(obs.NewFECMetrics(w.reg))
		}
		rx = obs.InstrumentReceiver(rx, obs.NewReceiverMetrics(w.reg, w.lay.Channels()))
	}
	if w.horizon > 0 {
		rx = &censorReceiver{Receiver: rx, limit: w.horizon}
	}
	sess, err := dsi.Open(w.lay.X, dsi.WithReceiver(rx))
	if err != nil {
		panic(fmt.Sprintf("experiment: opening receiver session: %v", err))
	}
	return &sessionAdapter{s: sess, forget: frx.Forget}
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

// dsiSessionsMinted counts sessions constructed from scratch, so tests
// can assert that workloads reuse sessions instead of re-minting them.
var dsiSessionsMinted atomic.Int64

// Acquire pops an idle session, or mints one when none is idle. A
// session is one long-lived dsi.Session re-tuned between queries:
// identical results and metrics to fresh clients, without
// re-allocating a knowledge base per query.
func (s *DSISystem) Acquire() QuerySession {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		a := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return a
	}
	s.mu.Unlock()
	dsiSessionsMinted.Add(1)
	a := s.mint()
	a.strat = s.Strategy
	return a
}

// Release pushes the session back onto the idle stack.
func (s *DSISystem) Release(q QuerySession) {
	s.mu.Lock()
	s.idle = append(s.idle, q.(*sessionAdapter))
	s.mu.Unlock()
}

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

func (s *RTreeSystem) CycleLen() int { return s.B.Lay.Prog.Len() }

// Acquire lends the broadcast itself: it answers queries statelessly
// and is safe for concurrent use.
func (s *RTreeSystem) Acquire() QuerySession { return s.B }

func (s *RTreeSystem) Release(QuerySession) {}

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

func (s *HCISystem) CycleLen() int { return s.B.Lay.Prog.Len() }

// Acquire lends the broadcast itself, as RTreeSystem does.
func (s *HCISystem) Acquire() QuerySession { return s.B }

func (s *HCISystem) Release(QuerySession) {}

func mustSys(s System, err error) System {
	if err != nil {
		panic(fmt.Sprintf("experiment: building system: %v", err))
	}
	return s
}
