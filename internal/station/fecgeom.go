// Exported view of the coded physical geometry. A coded broadcast's
// transmitter and receiver both derive the parity-bearing slot layout
// from catalog knowledge (newFECGeom); external replay engines that
// model a coded client's clock without running a byte-level receiver
// need the same two slot maps per channel. A coded transmitter hands
// its own out read-only.

package station

// CodedChannel is the physical slot geometry of one channel of an
// erasure-coded broadcast: the cycle length including parity tails and
// the two maps between the logical (content-only) and physical
// (parity-bearing) slot domains. The slices alias the transmitter's
// geometry tables and must not be modified.
type CodedChannel struct {
	// PhysLen is the physical slots per cycle: the logical channel
	// length plus every unit's parity tail.
	PhysLen int
	// Log2Phys maps a logical slot to the physical slot carrying it.
	Log2Phys []int32
	// LogOf maps a physical slot to its logical slot; parity slots map
	// forward to the next content slot, exactly as a coded receiver's
	// Pos reports them.
	LogOf []int32
}

// CodedGeometry returns the per-channel physical geometry the committed
// generation serves, sharing its slot maps; nil when it is uncoded.
func (t *MultiTransmitter) CodedGeometry() []CodedChannel {
	geo := t.air.Load().cur.fec
	if geo == nil {
		return nil
	}
	out := make([]CodedChannel, len(geo.chs))
	for ch := range geo.chs {
		c := &geo.chs[ch]
		out[ch] = CodedChannel{PhysLen: c.physLen, Log2Phys: c.log2phys, LogOf: c.logOf}
	}
	return out
}
