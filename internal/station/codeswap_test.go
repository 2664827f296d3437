package station

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// TestFECReceiverCodeSwapAcrossSeam stages a swap that changes the FEC
// code along with the directory — an adaptive station retuning its
// rate, or turning coding on or off. The receiver must re-adopt the new
// geometry from the descriptor (this used to panic), keep answering
// windows correctly on both sides of the seam, and count exactly one
// code swap per crossing.
func TestFECReceiverCodeSwapAcrossSeam(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 260, 617, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	side := int(ds.Curve.Side())

	for _, tc := range []struct {
		name     string
		from, to wire.FECConfig
	}{
		{"xor-to-rs", xorCode(), rsCode()},
		{"rs-to-xor", rsCode(), xorCode()},
		// Coding turned on or off at the seam: a client that tuned in
		// uncoded follows the swap onto the parity-bearing air (this row
		// never returned while the uncoded receiver was its own type), and
		// a coded one drops back to the stream without slot maps.
		{"off-to-xor", wire.FECConfig{}, xorCode()},
		{"xor-to-off", xorCode(), wire.FECConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			swapped := 0
			for trial := 0; trial < 10; trial++ {
				rb, err := NewMultiTransmitterFEC(lay0, tc.from)
				if err != nil {
					t.Fatal(err)
				}
				probe := rng.Int63n(int64(2 * lay0.ProbeCycle()))
				if _, err := rb.StageFEC(lay1, tc.to, probe); err != nil {
					t.Fatal(err)
				}
				var loss *broadcast.LossModel
				if trial%2 == 1 {
					loss = broadcast.GilbertForTheta(0.25, 3, rng.Int63())
					loss.AffectsData = true
				}
				rx, err := NewFECReceiver(lay0, 1, rb, tc.from, probe, loss)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				rx.SetObs(obs.NewFECMetrics(reg))
				sess, err := dsi.Open(x, dsi.WithReceiver(rx))
				if err != nil {
					t.Fatal(err)
				}
				w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 50, ds.Curve.Side())
				got, _ := sess.Window(w)
				want := ds.WindowBrute(w)
				if !equalIDs(got, want) {
					t.Fatalf("trial %d: window across code swap returned %d objects, want %d",
						trial, len(got), len(want))
				}
				swaps := reg.Sum("station_fec_code_swaps_total")
				if rx.Version() == 2 {
					swapped++
					if rx.cfg != tc.to {
						t.Fatalf("trial %d: resynced receiver still on old code %+v", trial, rx.cfg)
					}
					if (rx.geo != nil) != tc.to.Enabled() {
						t.Fatalf("trial %d: slot maps present=%v under code %+v", trial, rx.geo != nil, tc.to)
					}
					if swaps != 1 {
						t.Fatalf("trial %d: code swap counter = %v, want 1", trial, swaps)
					}
					// A post-seam query must run entirely on the new code.
					w2 := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
					got2, _ := sess.Window(w2)
					if !equalIDs(got2, ds.WindowBrute(w2)) {
						t.Fatalf("trial %d: post-swap window wrong on adopted code", trial)
					}
				} else if swaps != 0 {
					t.Fatalf("trial %d: counted %v code swaps without crossing the seam", trial, swaps)
				}
			}
			if swapped == 0 {
				t.Fatal("no trial crossed the seam; the test exercises nothing")
			}
		})
	}
}
