// Exported view of the coded physical geometry. A coded broadcast's
// transmitter and receiver both derive the parity-bearing slot layout
// from catalog knowledge (newFECGeom); external replay engines that
// model a coded client's clock without running a byte-level receiver
// need the same two slot maps per channel. A coded transmitter and a
// coded receiver hand theirs out read-only: one geometry per (layout,
// code), shared by every holder in the process (sharedFECGeom).

package station

// CodedChannel is the physical slot geometry of one channel of an
// erasure-coded broadcast: the cycle length including parity tails and
// the two maps between the logical (content-only) and physical
// (parity-bearing) slot domains. The slices alias the shared geometry's
// tables and must not be modified.
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
func (t *MultiTransmitter) CodedGeometry() []CodedChannel { return t.air.Load().cur.fec.coded() }

// CodedGeometry returns the per-channel physical geometry the receiver
// decodes under, sharing its slot maps — those of every transmitter and
// receiver in the process holding the same layout under the same code;
// nil on an uncoded stream.
func (r *WireReceiver) CodedGeometry() []CodedChannel { return r.geo.coded() }

// coded is the exported view of g; nil for a nil geometry.
func (g *fecGeom) coded() []CodedChannel {
	if g == nil {
		return nil
	}
	out := make([]CodedChannel, len(g.chs))
	for ch := range g.chs {
		c := &g.chs[ch]
		out[ch] = CodedChannel{PhysLen: c.physLen, Log2Phys: c.log2phys, LogOf: c.logOf}
	}
	return out
}
