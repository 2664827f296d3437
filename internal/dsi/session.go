// The session facade: one constructor for every client the package
// knows how to assemble. Open takes the channel layout, or a whole
// receiver that carries its own; everything a query is tuned to — the
// probe slot and the loss processes, per channel included — is one
// Tune call, so the returned Session answers any number of queries
// with reusable state.
//
//	single channel, error-free        Open(x)
//	a layout (NewLayout, or a         Open(lay.X, WithLayout(lay))
//	sched.Plan's Layout)
//	byte-level reception (station)    Open(x, WithReceiver(station.NewWireReceiver(...)))
//	tune-in slot and loss             s.Tune(probe, loss)
//	per-channel loss                  s.Tune(probe, broadcast.PerChannel(m0, m1, ...))

package dsi

import "fmt"

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	lay *Layout
	rx  Receiver
}

// WithLayout runs the session over a prebuilt channel layout of the
// opened index (NewLayout, or a sched.Plan's Layout). Mutually
// exclusive with WithReceiver.
func WithLayout(lay *Layout) Option {
	return func(c *openConfig) { c.lay = lay }
}

// WithReceiver runs the session over a caller-supplied Receiver — the
// extension point for reception models the simulator does not build in
// (byte-level wire receivers, and the dual-radio and prefetching tuners
// on the roadmap). The receiver carries its own layout and tune-in
// state, so combining it with WithLayout is an error.
func WithReceiver(rx Receiver) Option {
	return func(c *openConfig) { c.rx = rx }
}

// Open assembles a query session over a built index. With no options
// the session runs the classic single-channel broadcast from slot 0
// with error-free reception; WithLayout selects another channel
// layout, WithReceiver a whole receiver, and Tune the tune-in slot and
// the loss processes.
func Open(x *Index, opts ...Option) (*Session, error) {
	var cfg openConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	rx := cfg.rx
	switch {
	case rx != nil && cfg.lay != nil:
		return nil, fmt.Errorf("dsi: WithReceiver carries its own layout; WithLayout conflicts")
	case rx != nil:
		if rx.Layout().X != x {
			return nil, fmt.Errorf("dsi: receiver serves a different index")
		}
	default:
		lay := cfg.lay
		if lay == nil {
			lay = x.single
		}
		if lay.X != x {
			return nil, fmt.Errorf("dsi: layout belongs to a different index")
		}
		rx = NewSimReceiver(lay, 0, nil)
	}
	// The knowledge base follows the receiver's layout: per-shard spans
	// on sharded layouts, broadcast segments otherwise.
	lay := rx.Layout()
	var kb *knowledge
	if lay.Sched == SchedShard && lay.Channels() > 1 {
		kb = newShardKnowledge(x, lay.shardBounds)
	} else {
		kb = newKnowledge(x)
	}
	return &Session{x: x, lay: lay, rx: rx, kb: kb, probeSlot: rx.Stats().ProbeSlot, fresh: true}, nil
}
