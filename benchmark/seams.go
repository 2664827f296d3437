// Decorators for the two public seams the layers meet at: dsi.Receiver
// (client navigation above, reception below) and station.PacketSource
// (reception above, the station's byte stream below). They live here,
// not in the packages they wrap: the benchmark measures the layers from
// outside and the untraced run never constructs them.

package main

import (
	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/station"
)

// tracedReceiver records one span per receiver operation. Accessors and
// Reset/Follow/SetChannelLoss pass through the embedded receiver
// untimed: they move no packets.
type tracedReceiver struct {
	dsi.Receiver
	rec *recorder
}

func (t *tracedReceiver) Table(pos int) (*dsi.Table, bool) {
	id := t.rec.begin(spanTable)
	tb, ok := t.Receiver.Table(pos)
	t.rec.end(id)
	return tb, ok
}

func (t *tracedReceiver) Header(pos, o int) (uint64, bool) {
	id := t.rec.begin(spanHeader)
	hc, ok := t.Receiver.Header(pos, o)
	t.rec.end(id)
	return hc, ok
}

func (t *tracedReceiver) Object(pos, o, skip int) bool {
	id := t.rec.begin(spanObject)
	ok := t.Receiver.Object(pos, o, skip)
	t.rec.end(id)
	return ok
}

func (t *tracedReceiver) Next() (broadcast.Slot, bool) {
	id := t.rec.begin(spanNext)
	s, ok := t.Receiver.Next()
	t.rec.end(id)
	return s, ok
}

func (t *tracedReceiver) DozeUntilPos(pos int) {
	id := t.rec.begin(spanDoze)
	t.Receiver.DozeUntilPos(pos)
	t.rec.end(id)
}

func (t *tracedReceiver) Poll() (*dsi.Layout, bool) {
	id := t.rec.begin(spanPoll)
	lay, ok := t.Receiver.Poll()
	t.rec.end(id)
	return lay, ok
}

func (t *tracedReceiver) Tune(ch int) {
	id := t.rec.begin(spanTune)
	t.Receiver.Tune(ch)
	t.rec.end(id)
}

// tracedSource records one span per PacketAt, as a child of whatever
// receiver operation asked for the packet. It shares the session's
// recorder, so each session wraps the (shared, immutable) source in its
// own decorator.
type tracedSource struct {
	station.PacketSource
	rec *recorder
}

func (t *tracedSource) PacketAt(ch int, abs int64) (station.Packet, uint32) {
	id := t.rec.begin(spanPacketAt)
	p, v := t.PacketSource.PacketAt(ch, abs)
	t.rec.end(id)
	return p, v
}

// FECDescAt keeps the decorated source a station.FECSource when the
// wrapped one is: the coded receiver reads its descriptor through it.
func (t *tracedSource) FECDescAt(abs int64) ([]byte, uint32) {
	if f, ok := t.PacketSource.(station.FECSource); ok {
		return f.FECDescAt(abs)
	}
	return nil, 0
}

// traceReceiver decorates rx when rec is set and returns it bare
// otherwise — the untraced path has no decorator to pay for.
func traceReceiver(rx dsi.Receiver, rec *recorder) dsi.Receiver {
	if rec == nil {
		return rx
	}
	return &tracedReceiver{Receiver: rx, rec: rec}
}

// traceSource is traceReceiver for the packet-source seam.
func traceSource(src station.PacketSource, rec *recorder) station.PacketSource {
	if rec == nil {
		return src
	}
	return &tracedSource{PacketSource: src, rec: rec}
}
