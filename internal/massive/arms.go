// The massive testbed: one dataset and index served through four
// broadcast organizations at matched per-channel bandwidth — the
// classic single channel, the index/data split, the sharded schedule,
// and the erasure-coded single channel (light interleaved-XOR code,
// whose parity tail lengthens the physical cycle the same way it does
// on a real coded station). Every arm exposes two ways to mint a
// receiver over the same air: the one the event-driven engine runs on
// and the reference receiver of the step-wise replay path. On the
// plain arms both are dsi.SimReceiver; on the coded arm the reference
// is the byte-level station.WireReceiver and the engine runs on the
// flat receiver (receiver.go) that the equivalence suite pins against
// it.

package massive

import (
	"fmt"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/sched"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// defaultSwitchSlots is the channel-switch cost of the multi-channel
// arms, matching the experiment harness default.
const defaultSwitchSlots = 2

// BedConfig sizes the testbed.
type BedConfig struct {
	N           int   // objects (default 10000)
	Order       int   // Hilbert curve order (default 8)
	Seed        int64 // dataset seed (default 1)
	Channels    int   // channels of the split and sharded arms (default 4)
	ObjectBytes int   // object payload size (default 1024)
}

func (c BedConfig) withDefaults() BedConfig {
	if c.N == 0 {
		c.N = 10000
	}
	if c.Order == 0 {
		c.Order = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.ObjectBytes == 0 {
		c.ObjectBytes = 1024
	}
	return c
}

// Arm is one broadcast organization of the testbed.
type Arm struct {
	Name string
	Lay  *dsi.Layout

	// Coded-arm state: the zero cfg marks a plain arm.
	cfg wire.FECConfig
	geo station.CodedChannel // physical slot geometry (coded arms)
	src station.PacketSource // coded transmitter for the reference path

	cycle int // slots probe positions scale against (physical on coded arms)
}

// CycleSlots returns the slots of one full broadcast cycle — what
// probe positions scale against (physical slots on the coded arm).
func (a *Arm) CycleSlots() int { return a.cycle }

func (a *Arm) coded() bool { return a.cfg.Enabled() }

// newFlat mints the event-driven engine's receiver over the arm: the
// flat receiver on the coded arm, the simulator's everywhere else.
func (a *Arm) newFlat() dsi.Receiver {
	if a.coded() {
		return newFlatFECReceiver(a.Lay, a.geo, 0)
	}
	return dsi.NewSimReceiver(a.Lay, 0, nil)
}

// newReference mints the step-wise reference receiver over the arm:
// the byte-level receiver over the arm's transmitter when it has one
// (the coded arm), the simulator's otherwise.
func (a *Arm) newReference() dsi.Receiver {
	if a.src == nil {
		return dsi.NewSimReceiver(a.Lay, 0, nil)
	}
	rx, err := station.NewFECReceiver(a.Lay, 1, a.src, a.cfg, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("massive: reference receiver: %v", err))
	}
	return rx
}

// Testbed is the shared immutable air of one massive run: the index
// and its arms. Everything here is read-only after construction, so
// any number of workers replay over it concurrently.
type Testbed struct {
	DS   *dataset.Dataset
	X    *dsi.Index
	Arms []*Arm
}

// LightCode is the low-overhead interleaved-XOR configuration of the
// coded arm and of the fec experiment's light arm: one parity packet
// per group of up to four members, so a short burst costs each group
// at most one erasure.
func LightCode(x *dsi.Index) wire.FECConfig {
	groups := func(k int) int { return (k + 3) / 4 }
	return wire.FECConfig{
		Table:  wire.FECCode{Groups: groups(x.TablePackets), Parity: 1},
		Object: wire.FECCode{Groups: groups(x.ObjPackets), Parity: 1},
	}
}

// NewTestbed builds the dataset, the index, and the four arms.
func NewTestbed(cfg BedConfig) (*Testbed, error) {
	cfg = cfg.withDefaults()
	ds := dataset.Uniform(cfg.N, uint(cfg.Order), cfg.Seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: cfg.ObjectBytes})
	if err != nil {
		return nil, err
	}

	classic := &Arm{Name: "classic", Lay: x.SingleLayout()}
	classic.cycle = classic.Lay.ProbeCycle()

	splitLay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: cfg.Channels, Scheduler: dsi.SchedSplit, SwitchSlots: defaultSwitchSlots,
	})
	if err != nil {
		return nil, fmt.Errorf("massive: split layout: %w", err)
	}
	split := &Arm{Name: "split", Lay: splitLay, cycle: splitLay.ProbeCycle()}

	plan, err := sched.Uniform(x, cfg.Channels-1)
	if err != nil {
		return nil, fmt.Errorf("massive: shard plan: %w", err)
	}
	shardLay, err := plan.Layout(defaultSwitchSlots)
	if err != nil {
		return nil, fmt.Errorf("massive: shard layout: %w", err)
	}
	shard := &Arm{Name: "shard", Lay: shardLay, cycle: shardLay.ProbeCycle()}

	code := LightCode(x)
	tx, err := station.NewMultiTransmitterFEC(classic.Lay, code)
	if err != nil {
		return nil, fmt.Errorf("massive: coded transmitter: %w", err)
	}
	geo := tx.CodedGeometry()[0]
	fec := &Arm{Name: "fec", Lay: classic.Lay, cfg: code, geo: geo, src: tx, cycle: geo.PhysLen}

	return &Testbed{DS: ds, X: x, Arms: []*Arm{classic, split, shard, fec}}, nil
}
