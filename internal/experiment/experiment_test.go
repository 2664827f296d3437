package experiment

import (
	"strings"
	"testing"

	"dsi/internal/dsi"
)

// smallParams keeps experiment tests fast while still end-to-end.
func smallParams() Params {
	return Params{N: 300, Order: 6, Seed: 7, Queries: 4, Verify: true}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.N != 10000 || p.Order != 8 || p.Queries != 100 || p.ObjectBytes != 1024 {
		t.Errorf("defaults wrong: %+v", p)
	}
	r := Params{Real: true}.withDefaults()
	if r.N != 5848 {
		t.Errorf("REAL default N = %d, want 5848", r.N)
	}
}

func TestDatasetSelection(t *testing.T) {
	u := Params{N: 100, Order: 6, Seed: 1}.Dataset()
	if u.N() != 100 || !strings.HasPrefix(u.Name, "UNIFORM") {
		t.Errorf("uniform dataset wrong: %s", u.Name)
	}
	r := Params{N: 200, Order: 7, Seed: 1, Real: true}.Dataset()
	if r.N() != 200 || !strings.HasPrefix(r.Name, "REAL") {
		t.Errorf("real dataset wrong: %s", r.Name)
	}
}

func TestSystemsAgreeOnResults(t *testing.T) {
	// The Verify flag makes the workload panic on any wrong result, so
	// a clean run is itself the assertion.
	p := smallParams()
	ds := p.Dataset()
	wl := p.workload(ds)
	for _, sys := range threeSystems(ds, 64, 1024) {
		m := wl.RunWindow(sys, 0.15)
		if m.LatencyBytes <= 0 || m.TuningBytes <= 0 {
			t.Errorf("%s: nonpositive metrics %v", sys.Name(), m)
		}
		if m.TuningBytes > m.LatencyBytes {
			t.Errorf("%s: tuning exceeds latency", sys.Name())
		}
		mk := wl.RunKNN(sys, 5)
		if mk.TuningBytes > mk.LatencyBytes {
			t.Errorf("%s kNN: tuning exceeds latency", sys.Name())
		}
	}
}

func TestSystemNamesAndCycle(t *testing.T) {
	p := smallParams()
	ds := p.Dataset()
	systems := threeSystems(ds, 64, 1024)
	wantNames := []string{"DSI", "R-tree", "HCI"}
	for i, sys := range systems {
		if sys.Name() != wantNames[i] {
			t.Errorf("system %d name %q, want %q", i, sys.Name(), wantNames[i])
		}
		if sys.CycleLen() <= 0 {
			t.Errorf("%s: bad cycle length", sys.Name())
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	p := smallParams()
	ds := p.Dataset()
	sys := mustSys(NewDSI(ds, dsi.Config{Capacity: 64}, dsi.Conservative, ""))
	a := p.workload(ds).RunWindow(sys, 0.1)
	b := p.workload(ds).RunWindow(sys, 0.1)
	if a != b {
		t.Errorf("same workload produced %v and %v", a, b)
	}
}

func TestFig8Structure(t *testing.T) {
	res := Fig8(smallParams())
	if len(res.Figures) != 4 {
		t.Fatalf("Fig8 produced %d figures", len(res.Figures))
	}
	ids := []string{"fig8a", "fig8b", "fig8c", "fig8d"}
	for i, f := range res.Figures {
		if f.ID != ids[i] {
			t.Errorf("figure %d id %q", i, f.ID)
		}
		if len(f.X) != len(CapacitiesAll) {
			t.Errorf("%s: %d x points", f.ID, len(f.X))
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.X) {
				t.Errorf("%s series %s: %d points for %d x", f.ID, s.Name, len(s.Y), len(f.X))
			}
			for _, y := range s.Y {
				if y <= 0 {
					t.Errorf("%s series %s: nonpositive value", f.ID, s.Name)
				}
			}
		}
	}
	// Window figures have 2 series; kNN figures 3.
	if len(res.Figures[0].Series) != 2 || len(res.Figures[2].Series) != 3 {
		t.Error("series counts wrong")
	}
	if out := res.Format(); !strings.Contains(out, "fig8a") {
		t.Error("Format missing figure id")
	}
}

func TestFig9Through12Structure(t *testing.T) {
	p := smallParams()
	cases := []struct {
		name string
		fn   func(Params) Result
		figs int
	}{
		{"fig9", Fig9, 2},
		{"fig10", Fig10, 2},
		{"fig11", Fig11, 4},
		{"fig12", Fig12, 2},
	}
	for _, tc := range cases {
		res := tc.fn(p)
		if len(res.Figures) != tc.figs {
			t.Fatalf("%s: %d figures, want %d", tc.name, len(res.Figures), tc.figs)
		}
		for _, f := range res.Figures {
			if len(f.Series) != 3 {
				t.Errorf("%s %s: %d series, want 3 (DSI, R-tree, HCI)", tc.name, f.ID, len(f.Series))
			}
			for _, s := range f.Series {
				if len(s.Y) != len(f.X) {
					t.Errorf("%s %s series %s incomplete", tc.name, f.ID, s.Name)
				}
			}
		}
	}
}

func TestTable1Structure(t *testing.T) {
	res := Table1(smallParams())
	if len(res.Tables) != 1 {
		t.Fatal("Table1 must produce one table")
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 9 { // 3 indexes x 3 thetas
		t.Fatalf("table1 has %d rows, want 9", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row width %d != header %d", len(row), len(tab.Header))
		}
		for _, cell := range row[2:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("deterioration cell %q not a percentage", cell)
			}
		}
	}
	if out := tab.Format(); !strings.Contains(out, "DSI") {
		t.Error("table format missing DSI row")
	}
}

func TestRealDatasetStructure(t *testing.T) {
	res := RealDataset(Params{N: 300, Order: 7, Seed: 3, Queries: 3, Verify: true})
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 4 {
		t.Fatalf("real table shape wrong: %+v", res.Tables)
	}
}

func TestAblations(t *testing.T) {
	p := smallParams()
	if res := AblationSizing(p); len(res.Figures) != 2 {
		t.Error("sizing ablation shape wrong")
	}
	if res := AblationReorgM(p); len(res.Tables[0].Rows) != 4 {
		t.Error("reorg-m ablation shape wrong")
	}
	if res := AblationIndexBase(p); len(res.Tables[0].Rows) != 3 {
		t.Error("base ablation shape wrong")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"base", "chanloss", "channels", "costmodel", "drift", "fec", "fig10", "fig11", "fig12", "fig8", "fig9", "massive", "real", "reorgm", "sharded", "sizing", "table1", "table1ge", "wireloss"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
}

func TestFigureFormatAlignment(t *testing.T) {
	f := Figure{ID: "x", Title: "t", XLabel: "cap", YLabel: "bytes", X: []float64{1, 2}}
	f.AddPoint("A", 1500)
	f.AddPoint("B", 2.5e6)
	f.AddPoint("A", 10)
	f.AddPoint("B", 3e6)
	out := f.Format()
	if !strings.Contains(out, "1.5KB") || !strings.Contains(out, "2.50MB") || !strings.Contains(out, "10B") {
		t.Errorf("byte formatting wrong:\n%s", out)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{5, "5B"}, {999, "999B"}, {1000, "1.0KB"}, {1536, "1.5KB"},
		{1e6, "1.00MB"}, {12345678, "12.35MB"},
	}
	for _, tc := range cases {
		if got := humanBytes(tc.v); got != tc.want {
			t.Errorf("humanBytes(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestLossWorkloadVerifiesUnderTheta(t *testing.T) {
	p := smallParams()
	ds := p.Dataset()
	wl := p.workload(ds)
	wl.Theta = 0.5
	sys := mustSys(NewDSI(ds, dsi.Config{Capacity: 64, Segments: 2}, dsi.Conservative, ""))
	m := wl.RunWindow(sys, 0.1) // Verify=true: panics on wrong result
	if m.LatencyBytes <= 0 {
		t.Error("no latency measured under loss")
	}
}

func TestCostModelStructure(t *testing.T) {
	res := CostModel(smallParams())
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != len(CapacitiesAll) {
		t.Fatalf("costmodel shape wrong: %+v", res.Tables)
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{ID: "x", XLabel: "cap", X: []float64{64, 128}}
	f.AddPoint("DSI", 100)
	f.AddPoint("R-tree", 200)
	f.AddPoint("DSI", 300)
	f.AddPoint("R-tree", 400)
	got := f.CSV()
	want := "cap,DSI,R-tree\n64,100,200\n128,300,400\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	r := Result{Figures: []Figure{f}}
	if out := r.CSV(); !strings.Contains(out, "# x") {
		t.Errorf("Result.CSV missing figure header: %q", out)
	}
}

// TestExperimentsRunAtMinObjects holds every registered experiment to
// the dataset floor MinObjects declares for it: at that many objects,
// on a small grid, each one runs to completion.
func TestExperimentsRunAtMinObjects(t *testing.T) {
	for _, name := range Names() {
		n, _ := MinObjects([]string{name})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s at its floor of %d objects: %v", name, n, r)
				}
			}()
			Registry[name](Params{N: n, Order: 3, Seed: 1, Queries: 1, Verify: true})
		}()
	}
	if n, by := MinObjects(Names()); n != 8 || by == "" {
		t.Errorf("MinObjects(all) = %d (%q), want 8 from the 8-channel sweeps", n, by)
	}
}
