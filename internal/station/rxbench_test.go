package station

import (
	"testing"

	"dsi/internal/broadcast"
)

// BenchmarkWireReceiverObject is what a warm byte-level receiver pays per
// object packet (ns/packet) to receive whole objects — a header read and
// the object behind it — over the wire_lossy broadcast shape: a coded
// four-channel shard layout under wireLossyCode, Gilbert–Elliott loss at
// theta 0.3 with bursts of 8 (index packets only, as in the workload, so
// every object arrives and the clean path is what is timed). It walks
// the first object of every frame in turn and must allocate nothing. It
// drives the receiver through dsi.Receiver methods alone.
func BenchmarkWireReceiverObject(b *testing.B) {
	_, x, lay := wireTestBed(b, 1200, 569, quarterBounds)
	tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := NewFECReceiver(lay, 1, tx, wireLossyCode, 0, broadcast.GilbertForTheta(0.3, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	object := func(pos int) {
		ch, slot := lay.DataPlace(pos)
		rx.Tune(ch)
		rx.DozeUntilPos(slot)
		if _, ok := rx.Header(pos, 0); !ok {
			b.Fatalf("frame %d: header lost with data packets loss-free", pos)
		}
		if !rx.Object(pos, 0, 1) {
			b.Fatalf("frame %d: object lost with data packets loss-free", pos)
		}
	}
	for pos := 0; pos < x.NF; pos++ {
		object(pos) // warm: scratch, window and every code path allocated
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		object(i % x.NF)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.ObjPackets), "ns/packet")
}
