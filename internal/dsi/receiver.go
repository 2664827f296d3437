// The Receiver abstraction: the client's only window onto the air.
//
// Query processing (knowledge base, navigation, termination) never
// touches the broadcast medium directly — every packet a client
// receives flows through a Receiver, which turns positioned reads into
// content: index tables, object headers, object payloads, and shard-
// directory updates. Two implementations ship with the package's
// ecosystem:
//
//   - SimReceiver (here) wraps the in-memory simulator fast path: it
//     pays tuning and latency through a broadcast.Tuner and serves
//     content from the index's precomputed tables and the dataset,
//     bit-identical to the pre-Receiver client.
//   - station.WireReceiver decodes the actual byte streams a
//     transmitter puts on air (package wire formats), including the
//     versioned shard directory, so loss applies to real packets —
//     directory packets included.
//
// New reception models (a dual-radio receiver, a prefetching tuner)
// are new Receiver implementations, not new client constructors: pass
// one to Open via WithReceiver.

package dsi

import (
	"dsi/internal/broadcast"
)

// Receiver is a mobile client's radio: position and clock accounting
// plus content reception. All cost metrics (latency, tuning, switches)
// accrue inside the receiver; the Session above it only decides where
// to point it next.
//
// Positioning methods (Tune, DozeUntilPos) move the radio; content
// methods (Next, Table, Header, Object) receive packets at the current
// position, paying one tuning packet per slot consumed and reporting
// ok=false when loss or an undecodable payload corrupted the content
// (the cost is paid either way). Poll surfaces a shard-directory
// version bump the receiver has learned from the air; Follow commits
// the session's switch onto the new layout. Reset starts a query
// (Session.Tune): the loss model it takes is the query's only loss
// state, per-channel processes included.
type Receiver interface {
	// Layout returns the channel layout the receiver currently assumes
	// on air (its catalog view; Poll/Follow advance it).
	Layout() *Layout
	// Now returns the absolute packet clock.
	Now() int64
	// Pos returns the current cycle position on the current channel,
	// relative to the channel's phase anchor.
	Pos() int
	// Channel returns the channel the radio is tuned to.
	Channel() int
	// PhaseOf returns the absolute slot at which channel ch's current
	// cycle has position 0 (0 until a schedule swap re-anchors it).
	PhaseOf(ch int) int64
	// Stats returns the cost metrics accumulated since the last Reset.
	Stats() broadcast.Stats
	// Tune retunes the radio to channel ch, paying the air's switch
	// cost when ch differs from the current channel.
	Tune(ch int)
	// DozeUntilPos sleeps until the next occurrence of the given cycle
	// position on the current channel.
	DozeUntilPos(pos int)
	// Next receives one packet at the current slot (the probe).
	Next() (broadcast.Slot, bool)
	// Table receives the index table of the frame at cycle position pos
	// (the radio must be at the table's first slot) and returns its
	// decoded content. The returned table is valid until the next Table
	// call; callers must not modify it.
	Table(pos int) (*Table, bool)
	// Header receives the header packet of the o-th object of the frame
	// at position pos and returns the object's HC value.
	Header(pos, o int) (uint64, bool)
	// Object receives the remaining packets of the o-th object of the
	// frame at position pos, the first skip packets having already been
	// consumed as a header. It reports whether every packet arrived
	// intact.
	Object(pos, o, skip int) bool
	// Poll reports a pending shard-directory version bump: the new
	// layout to re-seed onto, once the receiver has fully learned it
	// from the air. Receivers that pay reception costs for directory
	// content (the wire path) charge them here.
	Poll() (*Layout, bool)
	// Follow commits the client's re-seed onto lay (a layout obtained
	// from Poll, or a scheduled simulator-side swap target).
	Follow(lay *Layout)
	// Reset re-tunes the radio at the given absolute slot with fresh
	// metrics and the given loss model (per channel when it is a
	// broadcast.PerChannel model), preserving what the receiver knows
	// about the schedule.
	Reset(probeSlot int64, loss *broadcast.LossModel)
}

// SimReceiver is the in-memory simulator receiver: costs are paid
// through a broadcast.Tuner over the layout's air — one tuner for
// every layout, the one-channel layout included — and content is
// served from the index's precomputed tables and the dataset itself:
// the fast path every experiment harness runs on. It is bit-identical
// (results and cost metrics) to the pre-Receiver client.
type SimReceiver struct {
	lay *Layout
	tu  *broadcast.Tuner
}

// NewSimReceiver returns a simulator receiver tuned to the layout's
// start channel at the given absolute slot.
func NewSimReceiver(lay *Layout, probeSlot int64, loss *broadcast.LossModel) *SimReceiver {
	return &SimReceiver{lay: lay, tu: broadcast.NewTuner(lay.Air, lay.StartCh, probeSlot, loss)}
}

// Layout returns the layout the receiver runs over.
func (r *SimReceiver) Layout() *Layout { return r.lay }

// Now returns the absolute packet clock.
func (r *SimReceiver) Now() int64 { return r.tu.Now() }

// Pos returns the current cycle position on the current channel.
func (r *SimReceiver) Pos() int { return r.tu.Pos() }

// Channel returns the channel the radio is tuned to.
func (r *SimReceiver) Channel() int { return r.tu.Channel() }

// PhaseOf returns 0: simulator airs are anchored at slot 0 (the
// simulator models a schedule swap as an instantaneous program change,
// see Tuner.Retune).
func (r *SimReceiver) PhaseOf(int) int64 { return 0 }

// Stats returns the metrics accumulated since the last Reset.
func (r *SimReceiver) Stats() broadcast.Stats { return r.tu.Stats() }

// Tune retunes the radio to channel ch.
func (r *SimReceiver) Tune(ch int) { r.tu.Switch(ch) }

// DozeUntilPos sleeps until the next occurrence of the position.
func (r *SimReceiver) DozeUntilPos(pos int) { r.tu.DozeUntilPos(pos) }

// Next receives one packet at the current slot.
func (r *SimReceiver) Next() (broadcast.Slot, bool) { return r.tu.Read() }

// Table receives the TablePackets packets of position pos's index table
// and serves the precomputed decoded table. ok is false when any packet
// was corrupted; no knowledge is gained but the cost is paid.
func (r *SimReceiver) Table(pos int) (*Table, bool) {
	if !r.tu.ReadN(r.lay.X.TablePackets) {
		return nil, false
	}
	return &r.lay.X.tables[pos], true
}

// Header receives one header packet and serves the object's HC value
// from the dataset (the content a wire receiver decodes from bytes).
func (r *SimReceiver) Header(pos, o int) (uint64, bool) {
	if _, good := r.tu.Read(); !good {
		return 0, false
	}
	x := r.lay.X
	first, _ := x.FrameObjects(x.PosToFrame(pos))
	return x.DS.Objects[first+o].HC, true
}

// Object receives the object's remaining ObjPackets-skip packets.
func (r *SimReceiver) Object(pos, o, skip int) bool {
	return r.tu.ReadN(r.lay.X.ObjPackets - skip)
}

// Poll never reports a bump: the simulator drives swaps through
// Session.ScheduleResync instead of through on-air directory packets.
func (r *SimReceiver) Poll() (*Layout, bool) { return nil, false }

// Follow re-points the tuner at the new layout's air in place (the
// simulator's instantaneous schedule swap).
func (r *SimReceiver) Follow(lay *Layout) {
	r.tu.Retune(lay.Air)
	r.lay = lay
}

// Reset re-tunes the receiver at the given absolute slot.
func (r *SimReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	r.tu.Reset(probeSlot, loss)
}
