package broadcast

import "testing"

func chanOf(capacity, n int, kind Kind) *Channel {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = Slot{Kind: kind}
	}
	return &Channel{Program: Program{Capacity: capacity, Slots: slots}}
}

func TestNewAirValidates(t *testing.T) {
	if _, err := NewAir(0); err == nil {
		t.Error("empty air accepted")
	}
	if _, err := NewAir(0, chanOf(64, 4, KindData), chanOf(32, 4, KindData)); err == nil {
		t.Error("mixed capacities accepted")
	}
	if _, err := NewAir(-1, chanOf(64, 4, KindData)); err == nil {
		t.Error("negative switch cost accepted")
	}
	if _, err := NewAir(0, chanOf(64, 0, KindData)); err == nil {
		t.Error("empty channel accepted")
	}
	a, err := NewAir(2, chanOf(64, 4, KindIndex), chanOf(64, 6, KindData))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChannels() != 2 || a.Capacity != 64 || a.Channels[1].ID != 1 {
		t.Errorf("air misassembled: %v", a)
	}
}

func TestSwitchCostAndAccounting(t *testing.T) {
	data := chanOf(64, 6, KindData)
	data.Slots[5].Kind = KindIndex // the one slot that tells position 5 apart
	a, err := NewAir(5, chanOf(64, 4, KindIndex), data)
	if err != nil {
		t.Fatal(err)
	}
	tu := NewTuner(a, 0, 0, nil)
	tu.Read() // one packet on channel 0
	tu.Switch(0)
	if tu.Stats().Switches != 0 {
		t.Error("switching to the current channel charged a switch")
	}
	now := tu.Now()
	tu.Switch(1)
	if tu.Now() != now+5 {
		t.Errorf("switch advanced clock to %d, want %d", tu.Now(), now+5)
	}
	if tu.Channel() != 1 {
		t.Errorf("on channel %d, want 1", tu.Channel())
	}
	// The new channel's cycle length governs positions now.
	tu.DozeUntilPos(5)
	if s, _ := tu.Read(); s.Kind != KindIndex {
		t.Errorf("read %+v from channel 1, want its slot 5", s)
	}
	st := tu.Stats()
	if st.Switches != 1 || st.TuningPackets != 2 {
		t.Errorf("stats %+v, want 1 switch, 2 tuning packets", st)
	}

	// Reset returns to the start channel and clears accounting.
	tu.Reset(3, nil)
	if tu.Channel() != 0 || tu.Stats().Switches != 0 || tu.Stats().TuningPackets != 0 {
		t.Errorf("reset left state: ch=%d stats=%+v", tu.Channel(), tu.Stats())
	}
}

// TestPerChannelLoss: on channel ch, a PerChannel model draws exactly
// what a tuner-wide, same-seeded copy of its entry ch would — the same
// Read and ReadMask outcomes from the same draws — and a nil or missing
// entry reads error-free without drawing from any other entry.
func TestPerChannelLoss(t *testing.T) {
	air, err := NewAir(2, mixedChan(64, 7), mixedChan(64, 11), mixedChan(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	entry := func(ch int) *LossModel {
		switch ch {
		case 0:
			l := NewLossModel(0.3, 3)
			l.AffectsData = true
			return l
		case 1:
			return GilbertForTheta(0.4, 4, 5) // index packets only
		}
		return nil
	}
	perChannel := func(n int) *LossModel {
		ms := make([]*LossModel, n)
		for ch := range ms {
			ms[ch] = entry(ch)
		}
		return PerChannel(ms...)
	}
	// Three entries (channel 2's nil) and two (channel 2's missing).
	for _, n := range []int{3, 2} {
		for ch := 0; ch < 3; ch++ {
			per := NewTuner(air, 0, 4, perChannel(n))
			wide := NewTuner(air, 0, 4, entry(ch))
			per.Switch(ch)
			wide.Switch(ch)
			for round := 0; round < 4; round++ {
				for k := 1; k <= 64; k += 9 {
					if got, want := per.ReadMask(k), wide.ReadMask(k); got != want {
						t.Fatalf("%d entries, channel %d: ReadMask(%d) = %#x, tuner-wide copy %#x", n, ch, k, got, want)
					}
					_, got := per.Read()
					_, want := wide.Read()
					if got != want {
						t.Fatalf("%d entries, channel %d: Read intact=%v, tuner-wide copy %v", n, ch, got, want)
					}
					sameTuner(t, "per-channel", per, wide)
					per.DozeUntil(per.Now() + int64(k%5))
					wide.DozeUntil(wide.Now() + int64(k%5))
				}
			}
		}
	}

	// Reads on the entry-less channel 2 draw nothing: channel 0 then
	// loses exactly what a tuner that never left it loses.
	per := NewTuner(air, 0, 0, perChannel(2))
	ref := NewTuner(air, 0, 0, entry(0))
	per.Switch(2)
	if !per.ReadN(500) || per.ReadMask(64) != allIntact(64) {
		t.Fatal("a channel without an entry lost a packet")
	}
	per.Switch(0)
	ref.Switch(2)
	ref.Switch(0)
	ref.DozeUntil(per.Now())
	if got, want := per.ReadMask(64), ref.ReadMask(64); got != want {
		t.Fatalf("after reads on channel 2, channel 0 ReadMask = %#x, untouched model %#x", got, want)
	}
}

func TestSwitchOnSingleProgramTunerPanics(t *testing.T) {
	prog := &Program{Capacity: 64, Slots: []Slot{{}}}
	tu := NewTuner(SingleAir(prog), 0, 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("Switch on a single-program tuner did not panic")
		}
	}()
	tu.Switch(1)
}

// TestGilbertElliottDeterministic pins the burst model's behaviour for a
// fixed seed: identical seeds replay identical loss sequences, and the
// losses arrive in bursts (a lost packet's successor is lost far more
// often than the stationary rate).
func TestGilbertElliottDeterministic(t *testing.T) {
	seq := func() []bool {
		l := GilbertForTheta(0.3, 8, 12345)
		out := make([]bool, 4000)
		for i := range out {
			out[i] = l.Lost(KindIndex)
		}
		return out
	}
	a, b := seq(), seq()
	losses, afterLoss, lossAfterLoss := 0, 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs across identical seeds", i)
		}
		if a[i] {
			losses++
		}
		if i > 0 && a[i-1] {
			afterLoss++
			if a[i] {
				lossAfterLoss++
			}
		}
	}
	rate := float64(losses) / float64(len(a))
	if rate < 0.2 || rate > 0.4 {
		t.Errorf("stationary loss rate %.3f far from configured 0.3", rate)
	}
	burstiness := float64(lossAfterLoss) / float64(afterLoss)
	if burstiness < 2*rate {
		t.Errorf("loss-after-loss rate %.3f not bursty (stationary %.3f)", burstiness, rate)
	}
	if th := GilbertForTheta(0.3, 8, 1).Theta; th < 0.299 || th > 0.301 {
		t.Errorf("stationary Theta %.4f, want 0.3", th)
	}
}

// TestGilbertForThetaInfeasiblePanics: a stationary rate the requested
// burst length cannot average must be refused, not silently lowered.
func TestGilbertForThetaInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("infeasible (theta, burst length) pair accepted")
		}
	}()
	GilbertForTheta(0.9, 8, 1) // max feasible theta at burst 8 is 8/9
}

// TestGilbertElliottDataGating: by default data packets are never
// corrupted, but the chain still advances so the burst process does not
// depend on the packet mix.
func TestGilbertElliottDataGating(t *testing.T) {
	l := GilbertForTheta(0.5, 4, 9)
	for i := 0; i < 1000; i++ {
		if l.Lost(KindData) {
			t.Fatal("data packet corrupted without AffectsData")
		}
	}
	l.AffectsData = true
	lost := 0
	for i := 0; i < 1000; i++ {
		if l.Lost(KindData) {
			lost++
		}
	}
	if lost == 0 {
		t.Error("AffectsData burst model lost no data packets")
	}
}
