// InstrumentReceiver: the dsi.Receiver decorator. It forwards every
// call to the wrapped receiver unchanged — same reads, same dozes, same
// cost accounting — and counts what it sees on the way through:
// tune-ins, dozes, switches, probe misses, per-channel losses, polls
// and resyncs. Because it adds no behavior, an instrumented receiver is
// bit-identical to the bare one by construction; the regression tests
// pin that anyway, alongside an allocation guard proving the counter
// path adds zero allocs to a warm query loop.
//
// The same wrapper carries the slot tracer: Begin arms it with a
// TraceRecord, every operation appends a timeline event until End. With
// no record armed the trace path is one nil check.

package obs

import (
	"dsi/internal/broadcast"
	"dsi/internal/dsi"
)

// Trace event ops.
const (
	OpTuneIn = "tune-in"
	OpTune   = "tune"
	OpDoze   = "doze"
	OpProbe  = "probe"
	OpTable  = "table"
	OpHeader = "header"
	OpObject = "object"
	OpPoll   = "poll"
	OpResync = "resync"
	OpFollow = "follow"
)

// InstrumentedReceiver decorates a dsi.Receiver with counters and an
// optional armed trace. Use InstrumentReceiver to build one.
type InstrumentedReceiver struct {
	inner dsi.Receiver
	m     *ReceiverMetrics
	rec   *TraceRecord
}

// InstrumentReceiver wraps inner with the counter bundle (nil m counts
// nothing — wrap-for-tracing-only). The wrapper is itself a
// dsi.Receiver: pass it to dsi.Open via WithReceiver.
func InstrumentReceiver(inner dsi.Receiver, m *ReceiverMetrics) *InstrumentedReceiver {
	return &InstrumentedReceiver{inner: inner, m: m}
}

// Begin arms the tracer: subsequent operations append to rec.Events
// until End. The caller emits the finished record.
func (r *InstrumentedReceiver) Begin(rec *TraceRecord) { r.rec = rec }

// End disarms the tracer and returns the armed record.
func (r *InstrumentedReceiver) End() *TraceRecord {
	rec := r.rec
	r.rec = nil
	return rec
}

func (r *InstrumentedReceiver) trace(op string, pos int, n int64, ok bool) {
	if r.rec == nil {
		return
	}
	r.rec.Events = append(r.rec.Events, TraceEvent{
		Op: op, Slot: r.inner.Now(), Ch: r.inner.Channel(), Pos: pos, N: n, OK: ok,
	})
}

// Layout returns the wrapped receiver's layout.
func (r *InstrumentedReceiver) Layout() *dsi.Layout { return r.inner.Layout() }

// Now returns the absolute packet clock.
func (r *InstrumentedReceiver) Now() int64 { return r.inner.Now() }

// Pos returns the current cycle position.
func (r *InstrumentedReceiver) Pos() int { return r.inner.Pos() }

// Channel returns the tuned channel.
func (r *InstrumentedReceiver) Channel() int { return r.inner.Channel() }

// PhaseOf returns channel ch's phase anchor.
func (r *InstrumentedReceiver) PhaseOf(ch int) int64 { return r.inner.PhaseOf(ch) }

// Stats returns the wrapped receiver's cost metrics.
func (r *InstrumentedReceiver) Stats() broadcast.Stats { return r.inner.Stats() }

// Tune retunes the radio, counting a switch when the channel changes.
func (r *InstrumentedReceiver) Tune(ch int) {
	if r.m != nil && ch != r.inner.Channel() {
		r.m.Switches.Inc()
	}
	r.inner.Tune(ch)
	r.trace(OpTune, 0, int64(ch), true)
}

// DozeUntilPos sleeps to the position, counting the call and the slots
// slept.
func (r *InstrumentedReceiver) DozeUntilPos(pos int) {
	before := r.inner.Now()
	r.inner.DozeUntilPos(pos)
	if r.m != nil {
		r.m.DozeCalls.Inc()
		r.m.DozeSlots.Add(r.inner.Now() - before)
	}
	r.trace(OpDoze, pos, r.inner.Now()-before, true)
}

// Next receives the probe packet, counting a miss on loss.
func (r *InstrumentedReceiver) Next() (broadcast.Slot, bool) {
	s, ok := r.inner.Next()
	if r.m != nil && !ok {
		r.m.ProbeMisses.Inc()
	}
	r.trace(OpProbe, 0, 0, ok)
	return s, ok
}

// Table receives an index table, counting the read and any loss on the
// channel it was read from.
func (r *InstrumentedReceiver) Table(pos int) (*dsi.Table, bool) {
	ch := r.inner.Channel()
	t, ok := r.inner.Table(pos)
	if r.m != nil {
		r.m.TableReads.Inc()
		if !ok {
			r.m.loss(ch).Inc()
		}
	}
	r.trace(OpTable, pos, 0, ok)
	return t, ok
}

// Header receives an object header, counting the read and any loss.
func (r *InstrumentedReceiver) Header(pos, o int) (uint64, bool) {
	ch := r.inner.Channel()
	hc, ok := r.inner.Header(pos, o)
	if r.m != nil {
		r.m.HeaderReads.Inc()
		if !ok {
			r.m.loss(ch).Inc()
		}
	}
	r.trace(OpHeader, pos, int64(o), ok)
	return hc, ok
}

// Object receives an object body, counting the read and any loss.
func (r *InstrumentedReceiver) Object(pos, o, skip int) bool {
	ch := r.inner.Channel()
	ok := r.inner.Object(pos, o, skip)
	if r.m != nil {
		r.m.ObjectReads.Inc()
		if !ok {
			r.m.loss(ch).Inc()
		}
	}
	r.trace(OpObject, pos, int64(o), ok)
	return ok
}

// Poll checks for a directory bump, counting the check and — when one
// surfaces — the resync, labeled with the adopted version when the
// wrapped receiver exposes one.
func (r *InstrumentedReceiver) Poll() (*dsi.Layout, bool) {
	lay, ok := r.inner.Poll()
	if r.m != nil {
		r.m.Polls.Inc()
		if ok {
			r.m.Resyncs.Inc()
			if v, has := r.inner.(interface{ Version() uint32 }); has {
				r.m.resyncTo(v.Version())
			}
		}
	}
	if ok {
		r.trace(OpResync, 0, 0, true)
	}
	return lay, ok
}

// Follow commits a re-seed onto the new layout.
func (r *InstrumentedReceiver) Follow(lay *dsi.Layout) {
	r.inner.Follow(lay)
	r.trace(OpFollow, 0, 0, true)
}

// Reset re-tunes at the probe slot, counting a tune-in.
func (r *InstrumentedReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	if r.m != nil {
		r.m.TuneIns.Inc()
	}
	r.inner.Reset(probeSlot, loss)
	r.trace(OpTuneIn, 0, probeSlot, true)
}
