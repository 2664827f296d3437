// The flat receiver: the event-driven engine's radio on the coded arm.
// The coded arm's reference is the byte-level station.WireReceiver,
// which per packet asks the transmitter for bytes, looks up the
// program slot, draws from the loss model and bumps per-channel
// counters. At a million clients that bookkeeping is the simulation;
// none of it affects an error-free replay's outcome. The flat receiver
// implements the same dsi.Receiver contract with O(1) batched
// arithmetic per operation over the shared immutable layout and the
// coded channel's frame shape: a table read is two integer additions,
// a doze is a logical-to-physical slot map (a few divisions over the
// frame lengths) and a modular subtraction, and no per-client air,
// program, or tuner state exists at all; the per-receiver state is
// three integers and one cached table value.
//
// The plain arms need no such thing: dsi.SimReceiver builds no bytes,
// and broadcast.Tuner.ReadN makes its table and object reads the same
// constant-time additions on an error-free channel, so both engines
// replay those arms through it.
//
// The cost arithmetic replicates the coded receiver's tuner exactly —
// same clock, same tuning accounting, same modular position math —
// which the equivalence suite pins per client against the step-wise
// path. Loss is out of scope by design: the flat receiver models
// error-free channels only, and refuses loss models loudly rather than
// silently ignoring them.

package massive

import (
	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/station"
)

// flatFECReceiver is the flat receiver over a coded single-channel
// broadcast: the clock runs in the physical (parity-bearing) slot
// domain while Pos and DozeUntilPos speak logical cycle positions,
// exactly like station.WireReceiver's facade. On an error-free channel
// a coded read never touches the parity tail — every unit read costs
// its content packets and parity is dozed past — so the batched cost
// model is the plain one with the two slot maps of station.CodedChannel
// spliced in.
type flatFECReceiver struct {
	lay      *dsi.Layout
	x        *dsi.Index
	geo      station.CodedChannel
	physLen  int64
	capacity int

	now   int64
	start int64
	read  int64

	tab dsi.Table
}

// newFlatFECReceiver returns a flat receiver over the coded geometry
// of a single-channel layout, tuned at physical slot probe.
func newFlatFECReceiver(lay *dsi.Layout, geo station.CodedChannel, probe int64) *flatFECReceiver {
	if lay.Channels() != 1 {
		panic("massive: the coded flat receiver is single-channel")
	}
	r := &flatFECReceiver{
		lay:      lay,
		x:        lay.X,
		geo:      geo,
		physLen:  int64(geo.PhysLen),
		capacity: lay.X.Cfg.Capacity,
	}
	r.Reset(probe, nil)
	return r
}

func (r *flatFECReceiver) Layout() *dsi.Layout { return r.lay }
func (r *flatFECReceiver) Now() int64          { return r.now }
func (r *flatFECReceiver) Channel() int        { return 0 }
func (r *flatFECReceiver) PhaseOf(int) int64   { return 0 }

// Pos reports the logical cycle position; a radio sitting on a parity
// slot reports the next content position, as the coded facade does.
func (r *flatFECReceiver) Pos() int {
	return r.geo.LogOf(int(r.now % r.physLen))
}

func (r *flatFECReceiver) Stats() broadcast.Stats {
	return broadcast.Stats{
		ProbeSlot:      r.start,
		LatencyPackets: r.now - r.start,
		TuningPackets:  r.read,
		Capacity:       r.capacity,
	}
}

func (r *flatFECReceiver) Tune(ch int) {
	if ch != 0 {
		panic("massive: coded flat receiver is single-channel")
	}
}

// DozeUntilPos sleeps to the next physical occurrence of the logical
// position, dozing past any parity in between.
func (r *flatFECReceiver) DozeUntilPos(pos int) {
	target := int64(r.geo.Log2Phys(pos))
	delta := (target - r.now) % r.physLen
	if delta < 0 {
		delta += r.physLen
	}
	r.now += delta
}

func (r *flatFECReceiver) Next() (broadcast.Slot, bool) {
	r.now++
	r.read++
	return broadcast.Slot{}, true
}

func (r *flatFECReceiver) Table(pos int) (*dsi.Table, bool) {
	n := int64(r.x.TablePackets)
	r.now += n
	r.read += n
	r.tab = r.x.TableAt(pos)
	return &r.tab, true
}

func (r *flatFECReceiver) Header(pos, o int) (uint64, bool) {
	r.now++
	r.read++
	first, _ := r.x.FrameObjects(r.x.PosToFrame(pos))
	return r.x.DS.Objects[first+o].HC, true
}

func (r *flatFECReceiver) Object(pos, o, skip int) bool {
	n := int64(r.x.ObjPackets - skip)
	r.now += n
	r.read += n
	return true
}

func (r *flatFECReceiver) Poll() (*dsi.Layout, bool) { return nil, false }

func (r *flatFECReceiver) Follow(*dsi.Layout) {
	panic("massive: flat receivers model static schedules; Follow is unsupported")
}

func (r *flatFECReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	if loss != nil {
		panic("massive: flat receivers are error-free; loss models are unsupported")
	}
	r.now = probeSlot
	r.start = probeSlot
	r.read = 0
}
