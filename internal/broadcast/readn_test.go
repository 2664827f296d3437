package broadcast

import "testing"

// mixedChan is a channel whose slots alternate kinds, so models that
// gate loss on the packet kind draw on some slots and not on others.
func mixedChan(capacity, n int) *Channel {
	c := chanOf(capacity, n, KindData)
	for i := range c.Slots {
		if i%3 == 0 {
			c.Slots[i].Kind = KindIndex
		}
	}
	return c
}

// sameTuner fails unless the two tuners are in the same observable
// state and, from here on, lose the same packets — the second half is
// what shows a batch consumed exactly the draws its steps would have.
func sameTuner(t *testing.T, when string, batch, step *Tuner) {
	t.Helper()
	if batch.Now() != step.Now() || batch.Stats() != step.Stats() || batch.Channel() != step.Channel() {
		t.Fatalf("%s: batched tuner at now=%d %+v ch=%d, stepped at now=%d %+v ch=%d",
			when, batch.Now(), batch.Stats(), batch.Channel(), step.Now(), step.Stats(), step.Channel())
	}
}

func stepN(t *Tuner, n int) bool {
	return stepMask(t, n) == allIntact(n)
}

// stepMask is ReadMask(n) spelled out: n calls of Read, bit i set when
// read i arrived intact.
func stepMask(t *Tuner, n int) uint64 {
	var mask uint64
	for i := 0; i < n; i++ {
		if _, good := t.Read(); good {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// TestTunerReadNMatchesRead holds the batched reads to their definition:
// ReadN(n) and ReadMask(n) are n calls of Read — same clock, same
// accounting, same answer (ReadMask's bit i is read i's outcome), same
// loss draws — under every kind of loss model, on a single-program tuner
// and on an air tuner that switches channels.
func TestTunerReadNMatchesRead(t *testing.T) {
	const tablePackets, objPackets = 3, 16 // the two batch sizes a DSI client reads
	lossy := func(seed int64) *LossModel {
		l := NewLossModel(0.3, seed)
		l.AffectsData = true
		return l
	}
	models := []struct {
		name string
		mk   func() *LossModel
	}{
		{"nil", func() *LossModel { return nil }},
		{"theta-zero", func() *LossModel { return NewLossModel(0, 5) }},
		{"iid-index-only", func() *LossModel { return NewLossModel(0.4, 7) }},
		{"iid-all-packets", func() *LossModel { return lossy(9) }},
		{"gilbert-elliott", func() *LossModel {
			l := GilbertForTheta(0.3, 4, 11)
			l.AffectsData = true
			return l
		}},
		{"gilbert-elliott-theta-zero", func() *LossModel { return NewGilbertElliott(0.1, 0.5, 0, 0, 13) }},
	}
	air, err := NewAir(2, mixedChan(64, 7), mixedChan(64, 11), mixedChan(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		tuners := []struct {
			name string
			mk   func() *Tuner
			air  bool
		}{
			{"program", func() *Tuner { return NewTuner(SingleAir(&air.Channels[1].Program), 0, 4, m.mk()) }, false},
			{"air", func() *Tuner { return NewTuner(air, 0, 4, m.mk()) }, true},
			// A per-channel model: the model under test on channel 0, a
			// lossy one on channel 1 and an error-free one on channel 2.
			{"air-override", func() *Tuner {
				return NewTuner(air, 0, 4, PerChannel(m.mk(), lossy(17), NewLossModel(0, 19)))
			}, true},
		}
		for _, tc := range tuners {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				batch, step := tc.mk(), tc.mk() // identical twins: one batches, one steps
				for round := 0; round < 6; round++ {
					for _, n := range []int{0, 1, tablePackets, objPackets} {
						got, want := batch.ReadN(n), stepN(step, n)
						if got != want {
							t.Fatalf("round %d n=%d: batched read intact=%v, stepped %v", round, n, got, want)
						}
						sameTuner(t, "after a batch", batch, step)
						batch.DozeUntil(batch.Now() + int64(round))
						step.DozeUntil(step.Now() + int64(round))
					}
					// Every mask width, with a doze between batches so they
					// start at every phase of the mixed-kind cycle.
					for n := 1; n <= 64; n++ {
						if got, want := batch.ReadMask(n), stepMask(step, n); got != want {
							t.Fatalf("round %d: ReadMask(%d) = %#x, %d Reads %#x", round, n, got, n, want)
						}
						sameTuner(t, "after a mask", batch, step)
						batch.DozeUntil(batch.Now() + int64(n%5))
						step.DozeUntil(step.Now() + int64(n%5))
					}
					if tc.air {
						batch.Switch((round + 1) % 3)
						step.Switch((round + 1) % 3)
					}
				}
				// The models now hold whatever state the reads left them
				// in: identical draws so far means identical losses next.
				for i := 0; i < 40; i++ {
					_, a := batch.Read()
					_, b := step.Read()
					if a != b {
						t.Fatalf("read %d after the batches: batched twin intact=%v, stepped %v", i, a, b)
					}
				}
				sameTuner(t, "at the end", batch, step)
			})
		}
	}
}

// TestTunerReadNNegative: a non-positive batch reads nothing, like the
// loop it stands for.
func TestTunerReadNNegative(t *testing.T) {
	tu := NewTuner(SingleAir(testProgram(64, 8)), 0, 3, nil)
	if !tu.ReadN(-4) || tu.ReadMask(0) != 0 || tu.ReadMask(-2) != 0 || tu.Now() != 3 || tu.Stats().TuningPackets != 0 {
		t.Fatalf("an empty batch moved the tuner: now=%d %+v", tu.Now(), tu.Stats())
	}
}

// FuzzTunerReadN drives a batching tuner and a stepping twin through
// the same script of batches (ReadN, and ReadMask of 1..64 on odd
// steps), dozes and channel switches under an i.i.d. or burst loss
// model (theta 0 included) and requires them to agree throughout.
func FuzzTunerReadN(f *testing.F) {
	f.Add(0.0, int64(1), false, []byte{3, 16, 0x81, 1, 0x42, 16})
	f.Add(0.3, int64(2), false, []byte{16, 0x80, 3, 0x82, 0, 1, 0x45})
	f.Add(0.25, int64(3), true, []byte{1, 3, 16, 0x81, 16, 0x82, 3})
	f.Add(0.9, int64(4), false, []byte{63, 0x80, 63, 0x81, 63})
	f.Fuzz(func(t *testing.T, theta float64, seed int64, burst bool, script []byte) {
		if !(theta >= 0 && theta < 1) || len(script) > 256 {
			t.Skip()
		}
		if burst && (theta == 0 || theta > 0.7) {
			t.Skip() // GilbertForTheta's feasible range
		}
		air, err := NewAir(1, mixedChan(32, 5), mixedChan(32, 9), mixedChan(32, 4))
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *Tuner {
			var loss *LossModel
			if burst {
				loss = GilbertForTheta(theta, 3, seed)
			} else {
				loss = NewLossModel(theta, seed)
			}
			loss.AffectsData = seed%2 == 0
			return NewTuner(air, 0, seed&0xff, PerChannel(loss, loss, NewLossModel(theta/2, seed+1)))
		}
		batch, step := mk(), mk()
		for i, b := range script {
			switch {
			case b&0x80 != 0: // switch channel
				batch.Switch(int(b&0x7f) % 3)
				step.Switch(int(b&0x7f) % 3)
			case b&0x40 != 0: // doze
				batch.DozeUntil(batch.Now() + int64(b&0x3f))
				step.DozeUntil(step.Now() + int64(b&0x3f))
			case i%2 == 1: // mask of 1..64 packets
				n := int(b) + 1
				if got, want := batch.ReadMask(n), stepMask(step, n); got != want {
					t.Fatalf("op %d: ReadMask(%d) = %#x, %d Reads %#x", i, n, got, n, want)
				}
			default: // batch of 0..63 packets
				n := int(b)
				if got, want := batch.ReadN(n), stepN(step, n); got != want {
					t.Fatalf("op %d: ReadN(%d) intact=%v, %d Reads %v", i, n, got, n, want)
				}
			}
			sameTuner(t, "mid-script", batch, step)
		}
		for i := 0; i < 8; i++ {
			_, a := batch.Read()
			_, b := step.Read()
			if a != b {
				t.Fatalf("read %d after the script diverged", i)
			}
		}
	})
}
