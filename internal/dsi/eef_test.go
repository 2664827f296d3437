package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/dataset"
)

func TestEEFReachesCoveringFrame(t *testing.T) {
	ds := dataset.Uniform(200, 6, 61)
	for _, cfg := range []Config{{}, {Segments: 2}, {Sizing: SizingUnitFactor}} {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 30; i++ {
			o := ds.Objects[rng.Intn(ds.N())]
			c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
			frame, exists, st := c.EEF(o.HC)
			if !exists {
				t.Fatalf("cfg %+v: EEF(%d) missed existing object", cfg, o.HC)
			}
			first, num := x.FrameObjects(frame)
			found := false
			for id := first; id < first+num; id++ {
				if ds.Objects[id].HC == o.HC {
					found = true
				}
			}
			if !found {
				t.Fatalf("cfg %+v: EEF(%d) reached frame %d which does not hold the object",
					cfg, o.HC, frame)
			}
			if st.LatencyPackets <= 0 || st.TuningPackets > st.LatencyPackets {
				t.Fatalf("cfg %+v: bad stats %+v", cfg, st)
			}
		}
	}
}

func TestEEFNonexistentValue(t *testing.T) {
	ds := dataset.Uniform(100, 6, 63)
	x, _ := Build(ds, Config{})
	occupied := make(map[uint64]bool)
	for _, o := range ds.Objects {
		occupied[o.HC] = true
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		hc := uint64(rng.Int63n(int64(ds.Curve.Size())))
		if occupied[hc] {
			continue
		}
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		frame, exists, _ := c.EEF(hc)
		if exists {
			t.Fatalf("EEF(%d) claims a nonexistent object exists", hc)
		}
		// The covering frame must bracket hc: its minimum HC <= hc (or
		// hc precedes the whole broadcast and the frame is frame 0).
		if x.MinHC(frame) > hc && frame != 0 {
			t.Fatalf("EEF(%d) reached frame %d with min HC %d", hc, frame, x.MinHC(frame))
		}
	}
}

func TestEEFPanicsOutsideCurve(t *testing.T) {
	ds := dataset.Uniform(50, 5, 65)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("EEF outside curve did not panic")
		}
	}()
	c.EEF(ds.Curve.Size())
}

func TestEEFHopCountLogarithmic(t *testing.T) {
	// EEF's defining property: the number of index tables read grows
	// like log(nF), not linearly. With full base-2 coverage
	// (SizingUnitFactor) a point query on 4096 frames must read far
	// fewer than 100 tables.
	ds := dataset.Uniform(4096, 7, 67)
	x, err := Build(ds, Config{Sizing: SizingUnitFactor})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		o := ds.Objects[rng.Intn(ds.N())]
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		_, _, st := c.EEF(o.HC)
		// Tables are 3 packets here; allow probe + object + generous
		// slack: 100 packets is still far below linear scanning
		// (thousands of packets).
		if st.TuningPackets > 120 {
			t.Fatalf("EEF used %d packets of tuning; forwarding is not logarithmic",
				st.TuningPackets)
		}
	}
}

func TestCoveringFrameCertainty(t *testing.T) {
	ds := dataset.Uniform(100, 6, 69)
	x, _ := Build(ds, Config{})
	kb := newKnowledge(x)
	// Only the catalog seed is known: covering an HC beyond frame 0 is
	// uncertain because any unknown frame could still cover it.
	hc := ds.Objects[50].HC
	f, certain := kb.coveringFrame(hc)
	if f != 0 || certain {
		t.Fatalf("fresh kb: coveringFrame = (%d,%v), want (0,false)", f, certain)
	}
	// Teach it frames 49..51: now the covering frame of object 50's HC
	// is frame 50, with certainty (51 is known and adjacent).
	for _, fid := range []int{49, 50, 51} {
		kb.addFrameFact(fid, x.MinHC(fid))
	}
	f, certain = kb.coveringFrame(hc)
	if f != 50 || !certain {
		t.Fatalf("coveringFrame = (%d,%v), want (50,true)", f, certain)
	}
	// An HC value below every object is covered by frame 0, certainly.
	if ds.Objects[0].HC > 0 {
		f, certain = kb.coveringFrame(0)
		if f != 0 || !certain {
			t.Fatalf("coveringFrame(0) = (%d,%v), want (0,true)", f, certain)
		}
	}
	// The last frame covers anything above it, with certainty only
	// because it is the segment's last frame and known.
	kb.addFrameFact(x.NF-1, x.MinHC(x.NF-1))
	f, certain = kb.coveringFrame(ds.Curve.Size() - 1)
	if f != x.NF-1 || !certain {
		t.Fatalf("coveringFrame(max) = (%d,%v), want (%d,true)", f, certain, x.NF-1)
	}
}
