package massive

import (
	"testing"

	"math/rand/v2"
)

// TestFlatSkipMatchesBruteForceStepping checks the skip arithmetic at
// the bottom of the event-driven engine against brute force, on the
// receiver each arm's newFlat mints (SimReceiver's tuner doze on the
// plain arms, the flat receiver's slot maps on the coded one): after
// DozeUntilPos the clock must sit on the first slot at or after the
// probe whose broadcast position is the target — exactly where
// stepping one slot at a time would land.
func TestFlatSkipMatchesBruteForceStepping(t *testing.T) {
	bed := testBed(t)
	rng := rand.New(rand.NewPCG(21, 23))
	for _, arm := range bed.Arms {
		cycle := int64(arm.CycleSlots())
		for trial := 0; trial < 200; trial++ {
			probe := rng.Int64N(3 * cycle) // clocks beyond one cycle must wrap too
			var posAt func(t int64) int
			var landed func(t int64, target int) bool
			rx := arm.newFlat()
			rx.Reset(probe, nil)
			if arm.coded() {
				phys := int64(arm.geo.PhysLen)
				posAt = func(t int64) int { return arm.geo.LogOf(int(t % phys)) }
				// Parity slots map forward to the next content position,
				// so several physical slots can report the target; the
				// doze lands on the content slot itself — the last slot
				// of the contiguous run mapping to the position.
				landed = func(t int64, target int) bool {
					return posAt(t) == target && posAt(t+1) != target
				}
			} else {
				l := int64(arm.Lay.ChanLen(rx.Channel()))
				posAt = func(t int64) int { return int(t % l) }
				landed = func(t int64, target int) bool { return posAt(t) == target }
			}
			// Target: the position of a random future slot, so every
			// logical position (tables, headers, parity-adjacent data)
			// gets exercised.
			target := posAt(probe + rng.Int64N(cycle))
			rx.DozeUntilPos(target)

			want := probe
			for !landed(want, target) {
				want++
			}
			if rx.Now() != want || rx.Pos() != target {
				t.Fatalf("%s probe %d target %d: skipped to slot %d (pos %d), stepping lands at %d",
					arm.Name, probe, target, rx.Now(), rx.Pos(), want)
			}
		}
	}
}
