package broadcast

import "fmt"

// Channel is one physical broadcast channel: a cyclic program with a
// stable identity inside an Air. Channels of one Air share a global
// slot clock but cycle independently (their programs may have different
// lengths).
type Channel struct {
	ID int
	Program
}

// Air is a multi-channel broadcast medium: N channels transmitting in
// parallel on a common slot clock. A receiver listens to one channel at
// a time and pays SwitchSlots slots of latency (but no tuning cost: the
// radio is retuning, not receiving) whenever it changes channels.
//
// All channels must share one packet capacity so the slot clock has a
// single byte rate; per-channel cycle lengths are free. The paper's
// single-channel broadcast is the one-channel Air with zero switch
// cost (SingleAir): there is no separate single-program model.
type Air struct {
	// Capacity is the packet capacity common to every channel.
	Capacity int
	// SwitchSlots is the slot cost a receiver pays to retune from one
	// channel to another.
	SwitchSlots int
	// Channels are the parallel programs; Channels[i].ID == i.
	Channels []*Channel
}

// NewAir assembles channels into an air. It validates that at least one
// channel exists, that every channel is non-empty, and that all
// capacities agree (the slot clock needs a single byte rate).
func NewAir(switchSlots int, chans ...*Channel) (*Air, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("broadcast: air needs at least one channel")
	}
	if switchSlots < 0 {
		return nil, fmt.Errorf("broadcast: negative switch cost %d", switchSlots)
	}
	cap0 := chans[0].Capacity
	for i, ch := range chans {
		if ch.Len() == 0 {
			return nil, fmt.Errorf("broadcast: channel %d is empty", i)
		}
		if ch.Capacity != cap0 {
			return nil, fmt.Errorf("broadcast: channel %d capacity %d != channel 0 capacity %d",
				i, ch.Capacity, cap0)
		}
		ch.ID = i
	}
	return &Air{Capacity: cap0, SwitchSlots: switchSlots, Channels: chans}, nil
}

// SingleAir wraps a program as a one-channel air with zero switch cost.
// The channel shares the program's slot slice. An empty program panics,
// as NewAir refuses one.
func SingleAir(p *Program) *Air {
	if p.Len() == 0 {
		panic("broadcast: empty program")
	}
	return &Air{
		Capacity:    p.Capacity,
		Channels:    []*Channel{{ID: 0, Program: *p}},
		SwitchSlots: 0,
	}
}

// NumChannels returns the number of parallel channels.
func (a *Air) NumChannels() int { return len(a.Channels) }

func (a *Air) String() string {
	return fmt.Sprintf("Air{N=%d C=%d switch=%d}", len(a.Channels), a.Capacity, a.SwitchSlots)
}
