package broadcast

import (
	"math"
	"testing"
	"testing/quick"
)

func testProgram(capacity, n int) *Program {
	slots := make([]Slot, n)
	for i := range slots {
		k := KindData
		if i%4 == 0 {
			k = KindIndex
		}
		slots[i] = Slot{Kind: k}
	}
	return &Program{Capacity: capacity, Slots: slots}
}

func TestProgramBasics(t *testing.T) {
	p := testProgram(64, 20)
	if p.Len() != 20 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.CycleBytes() != 20*64 {
		t.Errorf("CycleBytes = %d", p.CycleBytes())
	}
	if p.At(0).Kind != KindIndex || p.At(1).Kind != KindData {
		t.Error("At kinds wrong")
	}
	if p.At(21) != p.At(1) {
		t.Error("At must wrap around the cycle")
	}
}

func TestPacketsFor(t *testing.T) {
	cases := []struct{ n, c, want int }{
		{0, 64, 0},
		{-5, 64, 0},
		{1, 64, 1},
		{64, 64, 1},
		{65, 64, 2},
		{1024, 64, 16},
		{1024, 512, 2},
		{252, 64, 4},
	}
	for _, tc := range cases {
		if got := PacketsFor(tc.n, tc.c); got != tc.want {
			t.Errorf("PacketsFor(%d,%d) = %d, want %d", tc.n, tc.c, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindIndex.String() != "index" || KindData.String() != "data" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestTunerReadAdvancesAndMeters(t *testing.T) {
	p := testProgram(64, 20)
	tu := NewTuner(SingleAir(p), 0, 3, nil)
	s, ok := tu.Read()
	if !ok {
		t.Fatal("error-free read failed")
	}
	if s != p.At(3) {
		t.Errorf("read slot %v, want %v", s, p.At(3))
	}
	if tu.Now() != 4 || tu.Pos() != 4 {
		t.Errorf("clock after read: now=%d pos=%d", tu.Now(), tu.Pos())
	}
	st := tu.Stats()
	if st.LatencyPackets != 1 || st.TuningPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LatencyBytes() != 64 || st.TuningBytes() != 64 {
		t.Errorf("bytes = %d/%d", st.LatencyBytes(), st.TuningBytes())
	}
}

func TestTunerDoze(t *testing.T) {
	p := testProgram(64, 20)
	tu := NewTuner(SingleAir(p), 0, 0, nil)
	tu.DozeUntil(7)
	if tu.Now() != 7 {
		t.Errorf("now = %d", tu.Now())
	}
	st := tu.Stats()
	if st.LatencyPackets != 7 || st.TuningPackets != 0 {
		t.Errorf("doze must cost latency only: %+v", st)
	}
}

func TestTunerDozeUntilPosWraps(t *testing.T) {
	p := testProgram(64, 10)
	tu := NewTuner(SingleAir(p), 0, 8, nil)
	tu.DozeUntilPos(2) // position 2 next occurs at absolute 12
	if tu.Now() != 12 {
		t.Errorf("now = %d, want 12", tu.Now())
	}
	tu.DozeUntilPos(2) // already there: zero slots
	if tu.Now() != 12 {
		t.Errorf("now = %d after no-op doze", tu.Now())
	}
}

func TestTunerPanics(t *testing.T) {
	p := testProgram(64, 10)
	cases := []func(){
		func() { SingleAir(&Program{Capacity: 64}) },
		func() { NewTuner(SingleAir(p), 0, -1, nil) },
		func() { NewTuner(SingleAir(p), 1, 0, nil) },
		func() { tu := NewTuner(SingleAir(p), 0, 5, nil); tu.DozeUntil(3) },
		func() { NextOccurrence(0, 10, 10) },
		func() { NewLossModel(1.0, 1) },
		func() { NewLossModel(-0.1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNextOccurrence(t *testing.T) {
	cases := []struct {
		now    int64
		pos, l int
		want   int64
	}{
		{0, 0, 10, 0},
		{0, 5, 10, 5},
		{12, 5, 10, 15},
		{15, 5, 10, 15},
		{16, 5, 10, 25},
		{99, 9, 10, 99},
	}
	for _, tc := range cases {
		if got := NextOccurrence(tc.now, tc.pos, tc.l); got != tc.want {
			t.Errorf("NextOccurrence(%d,%d,%d) = %d, want %d", tc.now, tc.pos, tc.l, got, tc.want)
		}
	}
}

func TestNextOccurrenceQuick(t *testing.T) {
	f := func(now uint16, pos uint8, l uint8) bool {
		cycle := int(l)%100 + 1
		p := int(pos) % cycle
		got := NextOccurrence(int64(now), p, cycle)
		return got >= int64(now) &&
			got < int64(now)+int64(cycle) &&
			int(got%int64(cycle)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossModelZeroThetaNoOp(t *testing.T) {
	l := NewLossModel(0, 1)
	for i := 0; i < 1000; i++ {
		if l.Lost(KindIndex) || l.Lost(KindData) {
			t.Fatal("theta=0 lost a packet")
		}
	}
	var nilModel *LossModel
	if nilModel.Lost(KindIndex) {
		t.Fatal("nil model lost a packet")
	}
}

func TestLossModelRate(t *testing.T) {
	l := NewLossModel(0.3, 42)
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if l.Lost(KindIndex) {
			lost++
		}
	}
	rate := float64(lost) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("loss rate %v, want ~0.3", rate)
	}
}

func TestLossModelDataExemptByDefault(t *testing.T) {
	l := NewLossModel(0.9, 7)
	for i := 0; i < 1000; i++ {
		if l.Lost(KindData) {
			t.Fatal("data packet lost with AffectsData=false")
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
		t.Error("no data packets lost with AffectsData=true and theta=0.9")
	}
}

func TestTunerWithLossCountsCorruptedTuning(t *testing.T) {
	p := testProgram(64, 20)
	l := NewLossModel(0.5, 3)
	tu := NewTuner(SingleAir(p), 0, 0, l)
	okCount := 0
	for i := 0; i < 100; i++ {
		if _, ok := tu.Read(); ok {
			okCount++
		}
	}
	st := tu.Stats()
	if st.TuningPackets != 100 {
		t.Errorf("tuning must count corrupted packets: %d", st.TuningPackets)
	}
	if okCount == 0 || okCount == 100 {
		t.Errorf("okCount = %d, expected a mix at theta=0.5", okCount)
	}
}

func TestTuningNeverExceedsLatencyQuick(t *testing.T) {
	p := testProgram(64, 50)
	f := func(ops []bool, probe uint8) bool {
		tu := NewTuner(SingleAir(p), 0, int64(probe), nil)
		for _, read := range ops {
			if read {
				tu.Read()
			} else {
				tu.DozeUntil(tu.Now() + 3)
			}
		}
		st := tu.Stats()
		return st.TuningPackets <= st.LatencyPackets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{LatencyPackets: 10, TuningPackets: 2, Capacity: 64}
	if got := s.String(); got != "latency=640B tuning=128B" {
		t.Errorf("String = %q", got)
	}
}
