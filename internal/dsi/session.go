// The session facade: one constructor for every client the package
// knows how to assemble. Functional options select the layout (or a
// prebuilt receiver), the tune-in slot, and the loss processes, so a
// new capability (multi-channel layouts, shards, per-channel loss,
// byte-level receivers) adds an option instead of widening a
// signature; the returned Session answers any number of queries with
// reusable state, keeping the zero-allocation append contracts of the
// client underneath.
//
//	single channel, error-free        Open(x)
//	prebuilt layout                   Open(lay.X, WithLayout(lay), WithProbeSlot(probe), WithLoss(loss))
//	build-your-own layout             Open(x, WithMultiConfig(mc), ...)
//	sharded plan (sched.Plan)         Open(x, WithMultiConfig(plan.MultiConfig(sw)), ...)
//	                                  or Open(x, WithShardBounds(bounds...), WithSwitchSlots(sw), ...)
//	byte-level reception (station)    Open(x, WithReceiver(station.NewWireReceiver(...)))

package dsi

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/spatial"
)

// Option configures Open.
type Option func(*openConfig)

type channelLoss struct {
	ch   int
	loss *broadcast.LossModel
}

type openConfig struct {
	lay         *Layout
	mc          *MultiConfig
	bounds      []int
	switchSlots int
	switchSet   bool
	probe       int64
	probeSet    bool
	loss        *broadcast.LossModel
	chLoss      []channelLoss
	rx          Receiver
}

// WithLayout runs the session over a prebuilt channel layout of the
// opened index. Mutually exclusive with WithMultiConfig, WithShardBounds
// and WithReceiver.
func WithLayout(lay *Layout) Option {
	return func(c *openConfig) { c.lay = lay }
}

// WithMultiConfig builds a channel layout for the opened index (see
// NewLayout) and runs the session over it. Mutually exclusive with
// WithLayout, WithShardBounds and WithReceiver.
func WithMultiConfig(mc MultiConfig) Option {
	return func(c *openConfig) { c.mc = &mc }
}

// WithShardBounds is shorthand for a SchedShard multi-config: bounds
// are the shard boundaries (ascending frame ids from 0 to the frame
// count, one data channel per shard plus the index channel), as emitted
// by the sched planner. Combine with WithSwitchSlots for a non-zero
// channel-switch cost.
func WithShardBounds(bounds ...int) Option {
	return func(c *openConfig) { c.bounds = bounds }
}

// WithSwitchSlots sets the channel-switch cost of a WithShardBounds
// layout. Layouts passed whole (WithLayout, WithMultiConfig) carry
// their own switch cost, so combining it with those is an error.
func WithSwitchSlots(n int) Option {
	return func(c *openConfig) {
		c.switchSlots = n
		c.switchSet = true
	}
}

// WithProbeSlot sets the absolute slot at which the session's client
// tunes in (default 0). Later queries re-tune at the slot given to
// Session.Tune.
func WithProbeSlot(slot int64) Option {
	return func(c *openConfig) {
		c.probe = slot
		c.probeSet = true
	}
}

// WithLoss sets the query-wide link-error model (nil, the default,
// means error-free channels).
func WithLoss(loss *broadcast.LossModel) Option {
	return func(c *openConfig) { c.loss = loss }
}

// WithChannelLoss overrides the loss model on one channel of a
// multi-channel layout. May be repeated for different channels; the
// overrides are reinstalled after every re-tune, so they persist for
// the session's lifetime (Client.SetChannelLoss, by contrast, lasts
// one query).
func WithChannelLoss(ch int, loss *broadcast.LossModel) Option {
	return func(c *openConfig) { c.chLoss = append(c.chLoss, channelLoss{ch, loss}) }
}

// WithReceiver runs the session over a caller-supplied Receiver — the
// extension point for reception models the simulator does not build in
// (byte-level wire receivers, and the dual-radio and prefetching tuners
// on the roadmap). The receiver carries its own layout and tune-in
// state; combining it with a layout option is an error, and probe/loss
// options are applied to it via Reset.
func WithReceiver(rx Receiver) Option {
	return func(c *openConfig) { c.rx = rx }
}

// Open assembles a query session over a built index. With no options
// the session runs the classic single-channel broadcast from slot 0
// with error-free reception; options select the channel layout (or a
// whole receiver), the tune-in slot, and the loss processes.
func Open(x *Index, opts ...Option) (*Session, error) {
	var cfg openConfig
	for _, opt := range opts {
		opt(&cfg)
	}

	layoutOpts := 0
	for _, set := range []bool{cfg.lay != nil, cfg.mc != nil, cfg.bounds != nil} {
		if set {
			layoutOpts++
		}
	}
	if layoutOpts > 1 {
		return nil, fmt.Errorf("dsi: Open with more than one of WithLayout, WithMultiConfig, WithShardBounds")
	}
	if cfg.rx != nil && layoutOpts > 0 {
		return nil, fmt.Errorf("dsi: WithReceiver carries its own layout; layout options conflict")
	}
	if cfg.switchSet && cfg.bounds == nil {
		return nil, fmt.Errorf("dsi: WithSwitchSlots applies to WithShardBounds layouts only")
	}

	rx := cfg.rx
	if rx == nil {
		lay := cfg.lay
		switch {
		case lay != nil:
		case cfg.mc != nil:
			var err error
			lay, err = NewLayout(x, *cfg.mc)
			if err != nil {
				return nil, err
			}
		case cfg.bounds != nil:
			var err error
			lay, err = NewLayout(x, MultiConfig{
				Channels:    len(cfg.bounds),
				Scheduler:   SchedShard,
				SwitchSlots: cfg.switchSlots,
				ShardBounds: cfg.bounds,
			})
			if err != nil {
				return nil, err
			}
		default:
			lay = x.single
		}
		if lay.X != x {
			return nil, fmt.Errorf("dsi: layout belongs to a different index")
		}
		rx = NewSimReceiver(lay, cfg.probe, cfg.loss)
	} else {
		if rx.Layout().X != x {
			return nil, fmt.Errorf("dsi: receiver serves a different index")
		}
		// Without an explicit probe option the receiver keeps (and the
		// session records) its construction-time probe slot, so neither
		// a loss-only Reset here nor an automatic re-tune later silently
		// moves the tune-in to slot 0. The construction loss model is
		// not recoverable through the interface: auto re-tunes of such
		// sessions run error-free, as documented on Session.
		if !cfg.probeSet {
			cfg.probe = rx.Stats().ProbeSlot
		}
		if cfg.probeSet || cfg.loss != nil {
			rx.Reset(cfg.probe, cfg.loss)
		}
	}

	s := &Session{
		c:      newReceiverClient(rx),
		probe:  cfg.probe,
		loss:   cfg.loss,
		chLoss: cfg.chLoss,
		fresh:  true,
	}
	if err := s.installChannelLoss(); err != nil {
		return nil, err
	}
	return s, nil
}

// Session is a reusable query endpoint over one DSI broadcast: it owns
// a client whose knowledge base, scratch buffers, and receiver are
// recycled across queries, so a warm session answers queries without
// dataset-sized allocations (the Append variants allocate nothing at
// steady state). Sessions are not safe for concurrent use; open one
// per worker.
//
// Each query runs from the session's current tune-in: Tune re-tunes
// for the next query, and a query issued without an intervening Tune
// re-tunes automatically at the previous probe slot and loss model
// (for a receiver injected without probe/loss options, its
// construction probe slot and error-free reception — the interface
// cannot recover the receiver's loss model; pass WithLoss or call
// Tune to keep loss across queries).
type Session struct {
	c      *Client
	probe  int64
	loss   *broadcast.LossModel
	chLoss []channelLoss
	fresh  bool
}

// Tune re-tunes the session at the given absolute slot with the given
// loss model, discarding everything the previous query learned. The
// session's channel-loss overrides (WithChannelLoss) are reinstalled.
func (s *Session) Tune(probeSlot int64, loss *broadcast.LossModel) {
	s.probe = probeSlot
	s.loss = loss
	s.c.Reset(probeSlot, loss)
	if err := s.installChannelLoss(); err != nil {
		// Open validated the overrides against this layout; a failure
		// here is a programming error.
		panic(fmt.Sprintf("dsi: session re-tune: %v", err))
	}
	s.fresh = true
}

func (s *Session) installChannelLoss() error {
	for _, cl := range s.chLoss {
		if err := s.c.SetChannelLoss(cl.ch, cl.loss); err != nil {
			return err
		}
	}
	return nil
}

// prepare readies the client for the next query, re-tuning at the
// previous probe parameters when no Tune intervened.
func (s *Session) prepare() {
	if !s.fresh {
		s.Tune(s.probe, s.loss)
	}
	s.fresh = false
}

// Window executes a window query: the IDs of all objects inside w, in
// HC order, with the query's cost metrics.
func (s *Session) Window(w spatial.Rect) ([]int, broadcast.Stats) {
	s.prepare()
	return s.c.Window(w)
}

// WindowAppend is Window appending into dst (which may be nil or a
// recycled buffer): zero allocations at steady state.
func (s *Session) WindowAppend(dst []int, w spatial.Rect) ([]int, broadcast.Stats) {
	s.prepare()
	return s.c.WindowAppend(dst, w)
}

// KNN executes a k-nearest-neighbor query with the given strategy.
func (s *Session) KNN(q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	s.prepare()
	return s.c.KNN(q, k, strat)
}

// KNNAppend is KNN appending into dst: zero allocations at steady
// state.
func (s *Session) KNNAppend(dst []int, q spatial.Point, k int, strat Strategy) ([]int, broadcast.Stats) {
	s.prepare()
	return s.c.KNNAppend(dst, q, k, strat)
}

// Point executes a point query.
func (s *Session) Point(p spatial.Point) (id int, found bool, stats broadcast.Stats) {
	s.prepare()
	return s.c.Point(p)
}

// SetChannelLoss overrides the loss model on one channel for the next
// query only (the Tune after it clears it; the WithChannelLoss option
// persists instead). When the session would re-tune automatically
// before that query, the re-tune happens here first so it cannot wipe
// the override.
func (s *Session) SetChannelLoss(ch int, loss *broadcast.LossModel) error {
	if !s.fresh {
		s.Tune(s.probe, s.loss)
	}
	return s.c.SetChannelLoss(ch, loss)
}

// Stats returns the cost metrics of the current query so far.
func (s *Session) Stats() broadcast.Stats { return s.c.Stats() }

// Layout returns the channel layout the session currently runs over
// (it advances when a directory swap re-seeds the client).
func (s *Session) Layout() *Layout { return s.c.Layout() }

// Client exposes the session's underlying client for capabilities the
// facade does not wrap (tracing, EEF, scheduled re-syncs).
func (s *Session) Client() *Client { return s.c }
