// Exported view of the coded physical geometry. A coded broadcast's
// transmitter and receiver both derive the parity-bearing slot layout
// from catalog knowledge (newFECGeom); external replay engines that
// model a coded client's clock without running a byte-level receiver
// need the same two maps per channel between the logical and physical
// slot domains. Both are arithmetic over the channel's frame shape, the
// one geometry per (layout, code) every holder in the process shares
// (sharedFECGeom).

package station

// CodedChannel is the physical slot geometry of one channel of an
// erasure-coded broadcast: the cycle length including parity tails and
// the two maps between the logical (content-only) and physical
// (parity-bearing) slot domains, each computed from the channel's frame
// shape in constant time.
type CodedChannel struct {
	// PhysLen is the physical slots per cycle: the logical channel
	// length plus every unit's parity tail.
	PhysLen int

	c *fecChan // the shared geometry's channel
}

// Log2Phys maps a logical slot to the physical slot carrying it.
func (c CodedChannel) Log2Phys(log int) int { return c.c.physSlot(log) }

// LogOf maps a physical slot to its logical slot; parity slots map
// forward to the next content slot, exactly as a coded receiver's Pos
// reports them.
func (c CodedChannel) LogOf(phys int) int { return c.c.logSlot(phys) }

// CodedGeometry returns the per-channel physical geometry the committed
// generation serves; nil when it is uncoded.
func (t *MultiTransmitter) CodedGeometry() []CodedChannel { return t.air.Load().cur.fec.coded() }

// CodedGeometry returns the per-channel physical geometry the receiver
// decodes under — that of every transmitter and receiver in the process
// holding the same layout under the same code; nil on an uncoded
// stream.
func (r *WireReceiver) CodedGeometry() []CodedChannel { return r.geo.coded() }

// coded is the exported view of g; nil for a nil geometry.
func (g *fecGeom) coded() []CodedChannel {
	if g == nil {
		return nil
	}
	out := make([]CodedChannel, len(g.chs))
	for ch := range g.chs {
		out[ch] = CodedChannel{PhysLen: g.chs[ch].physLen, c: &g.chs[ch]}
	}
	return out
}
