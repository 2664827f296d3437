package dsi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// unit names one entry of the pending sets: the frame unit of known
// frame idx of a span, or the gap unit after it.
type unit struct {
	span, idx int
	gap       bool
}

func (u unit) String() string {
	kind := "frame"
	if u.gap {
		kind = "gap"
	}
	return fmt.Sprintf("%s(%d,%d)", kind, u.span, u.idx)
}

// walkUnits enumerates the units a fresh walk (no resolution cache)
// visits, each once, in the order the walk first meets them — the order
// that breaks arrival ties.
func walkUnits(kb *knowledge, targets []hilbert.Range) []unit {
	var out []unit
	for j := 0; j < kb.nspan; j++ {
		base := kb.spanStart[j]
		seen := map[unit]bool{}
		kb.walkTargets(j, targets, nil, nil, func(_, lo, hi int) bool {
			u := unit{j, lo - 1, true}
			if lo == hi && kb.frameKnown(base+lo) {
				u = unit{j, lo, false}
			}
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
			return true
		})
	}
	return out
}

// pendingUnits enumerates the pending sets after sync and read-time
// validation of every member, in the tie order the timed chooser ranks
// them by.
func pendingUnits(kb *knowledge) []unit {
	kb.sync()
	var out []unit
	for j := 0; j < kb.nspan && j < len(kb.pend.frames); j++ {
		for _, i := range kb.pend.frames[j].AppendTo(nil) {
			kb.current(j, i, unitFrame)
		}
		for _, i := range kb.pend.gaps[j].AppendTo(nil) {
			kb.current(j, i, unitGap)
		}
		fr := kb.pend.frames[j].AppendTo(nil)
		gp := kb.pend.gaps[j].AppendTo(nil)
		for len(fr) > 0 || len(gp) > 0 {
			switch {
			case len(gp) == 0 || (len(fr) > 0 && fr[0] < gp[0]):
				out = append(out, unit{j, fr[0], false})
				fr = fr[1:]
			case len(fr) == 0 || gp[0] < fr[0]:
				out = append(out, unit{j, gp[0], true})
				gp = gp[1:]
			default: // both units of one frame
				f, g := unit{j, fr[0], false}, unit{j, gp[0], true}
				if kb.units(kb.spanStart[j]+fr[0])&unitGapFirst != 0 {
					f, g = g, f
				}
				out = append(out, f, g)
				fr, gp = fr[1:], gp[1:]
			}
		}
	}
	return out
}

// checkUnits holds the pending sets against a fresh walk.
func checkUnits(t testing.TB, kb *knowledge, targets []hilbert.Range, ctx string) {
	t.Helper()
	want := walkUnits(kb, targets)
	got := pendingUnits(kb)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pending units %v, a fresh walk visits %d %v", ctx, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pending unit %d is %v, the walk meets %v (pending %v, walk %v)",
				ctx, i, got[i], want[i], got, want)
		}
	}
	// The unit bits mirror the sets.
	for j := 0; j < kb.nspan; j++ {
		for it := kb.known[j].Begin(); it.Valid(); it.Next() {
			i := it.Value()
			bits := kb.units(kb.spanStart[j] + i)
			if (bits&unitFrame != 0) != kb.pend.frames[j].Contains(i) || (bits&unitGap != 0) != kb.pend.gaps[j].Contains(i) {
				t.Fatalf("%s: unit bits %03b of span %d index %d disagree with the sets", ctx, bits, j, i)
			}
		}
	}
}

// timedTies counts the distinct frames a fresh walk prices at the
// minimum arrival time: more than one is a tie the chooser must break
// the way the walk does.
func timedTies(c *Client, targets []hilbert.Range) int {
	kb := c.kb
	now, cur, sw := c.rx.Now(), c.rx.Channel(), int64(c.lay.Air.SwitchSlots)
	bestT := int64(math.MaxInt64)
	at := map[int]bool{}
	for j := 0; j < kb.nspan; j++ {
		base := kb.spanStart[j]
		kb.walkTargets(j, targets, nil, nil, func(_, lo, hi int) bool {
			var tm int64
			var p int
			if lo == hi && kb.frameKnown(base+lo) {
				p = kb.spanPos(j, lo)
				tm = c.arrivalData(p, now, cur, sw)
			} else {
				tm, p = c.arrivalTables(kb.spanPos(j, lo), kb.spanPos(j, hi), kb.stride, now, cur, sw)
			}
			if tm < bestT {
				bestT = tm
				clear(at)
			}
			if tm == bestT {
				at[p] = true
			}
			return true
		})
	}
	return len(at)
}

// hopChecker is installed as a client's onHop: after every navigation
// choice it re-derives the choice with the walk and, when deep, holds
// the pending sets against the walk's units.
type hopChecker struct {
	t    testing.TB
	c    *Client
	deep bool
	ctx  string

	hops, ties int
}

// installedRanges returns the installed target set as the walk reads
// it: a list as it is, the search disk decomposed.
func installedRanges(kb *knowledge) []hilbert.Range {
	if kb.pend.isDisk {
		return kb.pend.disk.AppendRanges(nil)
	}
	return kb.pend.targets
}

// install hooks the checker in; positional says the query navigates in
// cycle-position order on every layout (EEF).
func (h *hopChecker) install(positional bool) {
	c := h.c
	c.onHop = func(p, next int, ok bool) {
		h.t.Helper()
		targets := installedRanges(c.kb)
		timed := c.lay.splitData() && !positional
		var wantNext int
		var wantOK bool
		if timed {
			wantNext, wantOK = c.nextVisitTimed(targets, nil)
			if timedTies(c, targets) > 1 {
				h.ties++
			}
		} else {
			wantNext, wantOK = c.kb.nextUsefulMarked(p, targets, nil)
		}
		if next != wantNext || ok != wantOK {
			h.t.Fatalf("%s: hop %d from position %d (timed=%v): pending set chose (%d,%v), the walk (%d,%v)",
				h.ctx, h.hops, p, timed, next, ok, wantNext, wantOK)
		}
		h.hops++
		if h.deep {
			checkUnits(h.t, c.kb, targets, fmt.Sprintf("%s: hop %d", h.ctx, h.hops))
		}
	}
}

// sweepLayouts returns the layouts the identity sweep runs an index
// over; schedulers the index cannot carry are left out.
func sweepLayouts(x *Index) (lays []*Layout, resyncTo map[*Layout]*Layout) {
	lays = append(lays, x.single)
	resyncTo = map[*Layout]*Layout{}
	for _, mc := range []MultiConfig{
		{Channels: 2, Scheduler: SchedStripe, SwitchSlots: 2},
		{Channels: 3, Scheduler: SchedStripe},
		{Channels: 2, Scheduler: SchedSplit, SwitchSlots: 2},
		{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 1},
		{Channels: 5, Scheduler: SchedSplit, SwitchSlots: 3},
	} {
		if lay, err := NewLayout(x, mc); err == nil {
			lays = append(lays, lay)
		}
	}
	nf := x.NF
	if x.Cfg.Segments == 1 && nf >= 6 {
		shard := func(sw int, sizes ...int) *Layout {
			lay, err := NewLayout(x, MultiConfig{Channels: len(sizes) + 1, Scheduler: SchedShard,
				SwitchSlots: sw, ShardBounds: shardBoundsOf(sizes...)})
			if err != nil {
				return nil
			}
			return lay
		}
		a, b := shard(2, nf/3, nf/3, nf-2*(nf/3)), shard(2, 1, nf/2, nf-1-nf/2)
		if a != nil && b != nil {
			lays = append(lays, a)
			resyncTo[a] = b
		}
		if l := shard(0, nf/5+1, nf-nf/5-1); l != nil {
			lays = append(lays, l)
		}
	}
	return lays, resyncTo
}

// sweepQuery runs query kind (0 window, 1 point, 2 EEF, 3 kNN
// conservative, 4 kNN aggressive) on c, tuned in loss-free or not, with
// every hop checked, and verifies the answer against brute force.
func sweepQuery(t *testing.T, c *Client, kind int, lossFree bool, rng *rand.Rand, h *hopChecker) {
	ds := c.x.DS
	side := int(ds.Curve.Side())
	h.install(kind == 2)
	switch kind {
	case 0:
		w := randWindow(rng, side)
		got, _ := c.Window(w)
		if want := ds.WindowBrute(w); !equalInts(got, want) {
			t.Fatalf("%s: window %v got %v want %v", h.ctx, w, got, want)
		}
	case 1:
		o := ds.Objects[rng.Intn(ds.N())]
		p := o.P
		if rng.Intn(3) == 0 {
			p = spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
		}
		id, found, _ := c.Point(p)
		want := ds.WindowBrute(spatial.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
		if found != (len(want) > 0) || (found && id != want[0]) {
			t.Fatalf("%s: point %v got (%d,%v) want %v", h.ctx, p, id, found, want)
		}
	case 2:
		hc := uint64(rng.Int63n(int64(ds.Curve.Size())))
		if rng.Intn(2) == 0 {
			hc = ds.Objects[rng.Intn(ds.N())].HC
		}
		// EEF stops at the covering frame: it reports an object only when
		// it got one (a lost packet or a table-only visit on an
		// index-split layout leaves it unreported), and never invents one.
		_, exists, _ := c.EEF(hc)
		id := ds.FindHC(hc)
		want := id < ds.N() && ds.Objects[id].HC == hc
		if exists && !want || (exists != want && lossFree && !c.lay.splitData()) {
			t.Fatalf("%s: EEF(%d) exists=%v want %v", h.ctx, hc, exists, want)
		}
	default:
		q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
		k := 1 + rng.Intn(8)
		strat := Conservative
		if kind == 4 {
			strat = Aggressive
		}
		got, _ := c.KNN(q, k, strat)
		want, _ := ds.KNNBrute(q, k)
		if !sameDist2(ds, q, got, want) {
			t.Fatalf("%s: %v kNN at %v k=%d got %v want %v", h.ctx, strat, q, k, got, want)
		}
	}
}

// TestPendingSetMatchesWalk is the identity the navigation rests on:
// after every hop of every query of a sweep over sizings, segment
// counts, schedulers, channel counts, loss and query kinds — a
// mid-query directory swap included — the pending sets hold exactly the
// units a fresh walk visits, in the walk's order, and the chooser picks
// the walk's frame. Not skipped under -short: the shuffled and -race
// runs are where an order dependence in the patching would show.
func TestPendingSetMatchesWalk(t *testing.T) {
	t.Run("sweep", pendingSweep)
	t.Run("tie", pendingTie)
}

func pendingSweep(t *testing.T) {
	cfgs := []Config{
		{},
		{Segments: 2},
		{Segments: 3},
		{Sizing: SizingUnitFactor},
		{Sizing: SizingUnitFactor, Segments: 2, Capacity: 128},
		{Sizing: SizingPaperTable},
		{Sizing: SizingPaperTable, Segments: 2},
		{Sizing: SizingPaperTable, Segments: 3, Capacity: 128},
		{Capacity: 256, Segments: 2},
	}
	sizes := []int{7, 60, 400, 1500}
	if testing.Short() {
		sizes = []int{7, 60, 400}
	}
	queries, hops, ties := 0, 0, 0
	for ci, cfg := range cfgs {
		for _, n := range sizes {
			order := uint(5)
			if n > 400 {
				order = 7
			}
			ds := dataset.Uniform(n, order, int64(1000+10*ci+n))
			x, err := Build(ds, cfg)
			if err != nil {
				t.Fatalf("cfg %+v n=%d: %v", cfg, n, err)
			}
			lays, resyncTo := sweepLayouts(x)
			rng := rand.New(rand.NewSource(int64(31*ci + n)))
			for li, lay := range lays {
				// Kinds: window, point, EEF, kNN conservative, kNN
				// aggressive; each loss-free and lossy, twice.
				for run := 0; run < 20; run++ {
					kind, lossy := run%5, run/5%2
					c := openClient(lay, rng.Int63n(int64(lay.ProbeCycle())), lossFor(0.3*float64(lossy), rng.Int63()))
					h := &hopChecker{t: t, c: c, deep: queries%2 == 0,
						ctx: fmt.Sprintf("cfg %d n=%d layout %d (%v x%d) kind %d lossy %d", ci, n, li, lay.Sched, lay.Channels(), kind, lossy)}
					if to := resyncTo[lay]; to != nil && kind != 2 {
						if err := c.ScheduleResync(to, c.rx.Now()+rng.Int63n(int64(lay.ProbeCycle()))); err != nil {
							t.Fatal(err)
						}
					}
					sweepQuery(t, c, kind, lossy == 0, rng, h)
					queries++
					hops += h.hops
					ties += h.ties
				}
			}
		}
	}
	t.Logf("%d queries, %d hops checked, %d of them with an arrival tie", queries, hops, ties)
	if ties == 0 {
		t.Error("the sweep never produced an arrival tie: the tie order went unchecked")
	}
}

// pendingTie pins the tie of two units on different channels arriving
// in the same slot: the walk keeps the one it met first (lower span,
// then lower index), and every cost metric downstream follows the
// choice. It fails when the chooser's tie comparison is reversed.
func pendingTie(t *testing.T) {
	ds := dataset.Uniform(350, 7, 900)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lay := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 1})
	rng := rand.New(rand.NewSource(50))
	side := int(ds.Curve.Side())
	c := openClient(lay, 0, nil)
	ties := 0
	for trial := 0; trial < 40; trial++ {
		c.Reset(rng.Int63n(int64(lay.ProbeCycle())), nil)
		h := &hopChecker{t: t, c: c, deep: true, ctx: fmt.Sprintf("trial %d", trial)}
		h.install(false)
		w := randWindow(rng, side)
		got, _ := c.Window(w)
		if want := ds.WindowBrute(w); !equalInts(got, want) {
			t.Fatalf("trial %d: window %v got %v want %v", trial, w, got, want)
		}
		ties += h.ties
	}
	if ties == 0 {
		t.Fatal("no arrival tie in the pinned scenario: it no longer pins the tie order")
	}
	t.Logf("%d hops chose between units arriving in the same slot", ties)
}

// TestPendingGapBeforeFrame pins the one case where the walk meets a
// frame's gap unit before its frame unit: an early range the frame is
// resolved for still reaches the gap behind it, and a later range
// reaches an object of the frame that has no header yet. The sweep and
// the fuzzer do not find it on their own.
func TestPendingGapBeforeFrame(t *testing.T) {
	ds := dataset.Uniform(90, 5, 90)
	x, err := Build(ds, Config{Sizing: SizingPaperTable})
	if err != nil {
		t.Fatal(err)
	}
	if x.NO < 3 {
		t.Fatalf("need three objects a frame, have %d", x.NO)
	}
	lay := mustLayout(t, x, MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 1})
	for f := 1; f+1 < x.NF; f++ {
		first, num := x.FrameObjects(f)
		if num < 3 {
			continue
		}
		hc0, hc1, hc2 := ds.Objects[first].HC, ds.Objects[first+1].HC, ds.Objects[first+2].HC
		if hc0+1 >= hc1 {
			continue
		}
		c := openClient(lay, 0, nil)
		kb := c.kb
		targets := []hilbert.Range{{Lo: hc0 + 1, Hi: hc1}, {Lo: hc1 + 1, Hi: hc2 + 1}}
		kb.retarget(targets)
		kb.addFrameFact(f, hc0)
		kb.addHeader(f, 1, hc1)
		checkUnits(t, kb, targets, fmt.Sprintf("frame %d", f))
		if bits := kb.units(f); bits != unitFrame|unitGap|unitGapFirst {
			t.Fatalf("frame %d: unit bits %03b, want both units pending and the gap first", f, bits)
		}
		got, ok := c.nextPendingTimed()
		want, wok := c.nextVisitTimed(targets, nil)
		if got != want || ok != wok {
			t.Fatalf("frame %d: nextPendingTimed = (%d,%v), the walk (%d,%v)", f, got, ok, want, wok)
		}
		return
	}
	t.Fatal("no frame of the index fits the scenario")
}

// TestEvalUnitsMatchesPerRange holds the one-pass evaluation (evalUnits)
// against its definition, range by range (evalUnitsPerRange in
// walk_test.go), on synthetic frames: NO of 1, 3 and 8 objects, each
// located or not and retrieved or not, with located values that repeat
// (two objects on one cell, which generated datasets never produce);
// one to three spans, with target ranges that clip to nothing, touch,
// are empty, or end exactly one past an object's value; and the cursor
// hint left anywhere, past the targets included. The unit bits must be
// equal, unitGapFirst included. Not skipped under -short.
func TestEvalUnitsMatchesPerRange(t *testing.T) {
	beds := []struct {
		n   int
		cfg Config
		no  int
	}{
		{60, Config{}, 1},
		{150, Config{ObjectBytes: 256}, 3},
		{512, Config{Sizing: SizingPaperTable, Capacity: 70, IndexBase: 4}, 8},
	}
	checked, gapFirst := 0, 0
	for bi, bed := range beds {
		for spans := 1; spans <= 3; spans++ {
			cfg := bed.cfg
			cfg.Segments = spans
			x, err := Build(dataset.Uniform(bed.n, 7, int64(bed.n+spans)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if x.NO != bed.no {
				t.Fatalf("bed %d: NO = %d, want %d", bi, x.NO, bed.no)
			}
			kb := newKnowledge(x)
			rng := rand.New(rand.NewSource(int64(10*bi + spans)))
			for trial := 0; trial < 1500; trial++ {
				kb.reset()
				j, i, next := synthFrame(kb, rng)
				for hint := 0; hint < 3; hint++ {
					kb.pend.cursor = rng.Intn(len(kb.pend.targets) + 3)
					got, want := kb.evalUnits(j, i, next), kb.evalUnitsPerRange(j, i, next, kb.pend.targets)
					if got != want {
						lo, hi := kb.spanHC(j)
						t.Fatalf("bed %d, %d spans, trial %d: span %d [%d,%d) frame %d next %d: objects %v, upper %d, targets %v, hint %d: evalUnits %03b, per range %03b",
							bi, spans, trial, j, lo, hi, i, next, synthObjects(kb, j, i), synthUpper(kb, j, next), kb.pend.targets, kb.pend.cursor, got, want)
					}
					if want&unitGapFirst != 0 {
						gapFirst++
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d evaluations equal, %d of them with the gap unit first", checked, gapFirst)
	if gapFirst == 0 {
		t.Error("no evaluation met the gap unit first: unitGapFirst went unchecked")
	}
}

// TestEvalUnitsDiskMatchesRanges holds the disk branch of evalUnits
// against the same definition over the disk's maximal runs, materialised
// from the disk itself (Disk.AppendRanges: a radius re-squared from its
// root could drop a boundary cell). The frames are synthFrame's, the
// disks are centred on a cell the frame's predicates compare with,
// between cells, or off the grid, with the squared radius that of such a
// cell — the boundary falls exactly there — or a hair below it, zero,
// or unbounded. The unit bits must be equal, unitGapFirst included. Not
// skipped under -short.
func TestEvalUnitsDiskMatchesRanges(t *testing.T) {
	beds := []struct {
		n   int
		cfg Config
		no  int
	}{
		{60, Config{}, 1},
		{150, Config{ObjectBytes: 256}, 3},
		{512, Config{Sizing: SizingPaperTable, Capacity: 70, IndexBase: 4}, 8},
	}
	checked, gapFirst, both := 0, 0, 0
	for bi, bed := range beds {
		for spans := 1; spans <= 3; spans++ {
			cfg := bed.cfg
			cfg.Segments = spans
			x, err := Build(dataset.Uniform(bed.n, 7, int64(bed.n+spans)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if x.NO != bed.no {
				t.Fatalf("bed %d: NO = %d, want %d", bi, x.NO, bed.no)
			}
			kb := newKnowledge(x)
			rng := rand.New(rand.NewSource(int64(20*bi + spans)))
			for trial := 0; trial < 1500; trial++ {
				kb.reset()
				j, i, next := synthFrame(kb, rng)
				for k := 0; k < 3; k++ {
					d := synthDisk(kb, rng, j, i, next)
					kb.shrinkDisk(d)
					ranges := d.AppendRanges(nil)
					got, want := kb.evalUnits(j, i, next), kb.evalUnitsPerRange(j, i, next, ranges)
					if got != want {
						lo, hi := kb.spanHC(j)
						t.Fatalf("bed %d, %d spans, trial %d: span %d [%d,%d) frame %d next %d: objects %v, upper %d, disk %+v (runs %v): evalUnits %03b, per range %03b",
							bi, spans, trial, j, lo, hi, i, next, synthObjects(kb, j, i), synthUpper(kb, j, next), d, ranges, got, want)
					}
					if want&unitGapFirst != 0 {
						gapFirst++
					}
					if want&(unitFrame|unitGap) == unitFrame|unitGap {
						both++
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d evaluations equal, %d with both units pending, %d of them with the gap unit first", checked, both, gapFirst)
	if gapFirst == 0 || gapFirst == both {
		t.Error("unitGapFirst was never set, or never clear, with both units pending: its order went unchecked")
	}
}

// synthDisk draws a search disk around the synthetic frame i of span j:
// its centre on a cell the predicates compare with (the frame's minimum,
// a located object, the next known minimum, one past any of them),
// between cells, or off the grid; its squared radius that of such a
// cell, a hair below it, zero, or unbounded.
func synthDisk(kb *knowledge, rng *rand.Rand, j, i, next int) hilbert.Disk {
	c := kb.x.DS.Curve
	size := c.Size()
	f := kb.spanStart[j] + i
	hc, upper := kb.frameHC[f], synthUpper(kb, j, next)
	pts := []uint64{hc, hc + 1, upper - 1, upper}
	first, num := kb.x.FrameObjects(f)
	for id := first; id < first+num; id++ {
		if kb.objLocated(id) {
			pts = append(pts, kb.objHC[id], kb.objHC[id]+1)
		}
	}
	cell := func() (float64, float64) {
		x, y := c.Decode(min(pts[rng.Intn(len(pts))], size-1))
		return float64(x), float64(y)
	}
	side := float64(c.Side())
	var qx, qy float64
	switch rng.Intn(4) {
	case 0:
		qx, qy = cell()
	case 1:
		qx, qy = cell()
		qx, qy = qx+rng.Float64()-0.5, qy+rng.Float64()-0.5
	case 2:
		qx, qy = -1-rng.Float64()*side, rng.Float64()*2*side
	case 3:
		qx, qy = float64(rng.Intn(int(side))), float64(rng.Intn(int(side)))
	}
	x, y := cell()
	dx, dy := x-qx, y-qy
	r2 := float64(dx*dx) + float64(dy*dy)
	switch rng.Intn(10) {
	case 0:
		r2 = math.Nextafter(r2, 0)
	case 1:
		r2 = 0
	case 2:
		r2 = math.Inf(1)
	}
	return hilbert.Disk{Curve: c, Qx: qx, Qy: qy, R2: r2}
}

// synthObjects renders the objects of synthetic frame i of span j for a
// failure message: "?" without a header, "(got)" when retrieved.
func synthObjects(kb *knowledge, j, i int) []string {
	first, num := kb.x.FrameObjects(kb.spanStart[j] + i)
	var objs []string
	for id := first; id < first+num; id++ {
		switch {
		case !kb.objLocated(id):
			objs = append(objs, "?")
		case kb.retrieved(id):
			objs = append(objs, fmt.Sprintf("%d(got)", kb.objHC[id]))
		default:
			objs = append(objs, fmt.Sprint(kb.objHC[id]))
		}
	}
	return objs
}

// TestPendingMembership pins the two answers the client's data fetch
// reads from the installed targets, whichever their kind: whether a
// value is a target, and one past the last target cell.
func TestPendingMembership(t *testing.T) {
	x, err := Build(dataset.Uniform(60, 7, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	kb := newKnowledge(x)
	kb.retarget([]hilbert.Range{{Lo: 5, Hi: 10}, {Lo: 20, Hi: 21}, {Lo: 30, Hi: 40}})
	for _, tc := range []struct {
		v    uint64
		want bool
	}{
		{4, false}, {5, true}, {9, true}, {10, false},
		{20, true}, {21, false}, {35, true}, {40, false}, {100, false},
	} {
		if got := kb.pend.contains(tc.v); got != tc.want {
			t.Errorf("list: contains(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if kb.pend.end != 40 {
		t.Errorf("list: end = %d, want 40", kb.pend.end)
	}
	kb.retarget(nil)
	if kb.pend.end != 0 || kb.pend.contains(0) {
		t.Errorf("no targets: end = %d, contains(0) = %v, want 0 and false", kb.pend.end, kb.pend.contains(0))
	}
	c := x.DS.Curve
	for _, d := range []hilbert.Disk{
		{Curve: c, Qx: 40, Qy: 70.5, R2: 90},
		{Curve: c, Qx: 0, Qy: 0, R2: 0},
		{Curve: c, Qx: -3, Qy: 9, R2: 2}, // no cell
		{Curve: c, Qx: 127, Qy: 0, R2: math.Inf(1)},
	} {
		kb.retarget([]hilbert.Range{{Lo: 0, Hi: c.Size()}})
		kb.shrinkDisk(d)
		runs := d.AppendRanges(nil)
		want := uint64(0)
		if len(runs) > 0 {
			want = runs[len(runs)-1].Hi
		}
		if kb.pend.end != want {
			t.Errorf("disk %+v: end = %d, want %d", d, kb.pend.end, want)
		}
		in := map[uint64]bool{}
		for _, r := range runs {
			for v := r.Lo; v < r.Hi; v++ {
				in[v] = true
			}
		}
		for v := uint64(0); v < c.Size(); v++ {
			if kb.pend.contains(v) != in[v] {
				t.Fatalf("disk %+v: contains(%d) = %v, want %v", d, v, !in[v], in[v])
			}
		}
	}
}

// synthUpper is the bound evalUnits derives for the frame before next.
func synthUpper(kb *knowledge, j, next int) uint64 {
	if next < kb.spanLen(j) {
		return kb.frameHC[kb.spanStart[j]+next]
	}
	_, hi := kb.spanHC(j)
	return hi
}

// synthFrame installs a synthetic frame into a reset knowledge base: a
// frame i of a random span j with minimum hc, the next known frame at
// next with minimum upper (or none), the frame's objects located in
// ascending order with repeats, some retrieved, and a target set drawn
// around them. Everything evalUnits reads is set; nothing else is.
func synthFrame(kb *knowledge, rng *rand.Rand) (j, i, next int) {
	j = rng.Intn(kb.nspan)
	n := kb.spanLen(j)
	segLo, segHi := kb.spanHC(j)
	i = rng.Intn(n)
	next = i + 1 + rng.Intn(min(n-i, 3))
	if rng.Intn(4) == 0 {
		next = n
	}
	base := kb.spanStart[j]
	f := base + i
	width := segHi - segLo
	hc := segLo + uint64(rng.Int63n(int64(width)))
	upper := segHi
	if next < n {
		upper = min(hc+1+uint64(rng.Intn(40)), segHi)
		kb.frameHC[base+next] = upper
	}
	kb.frameHC[f] = hc
	// Candidate range boundaries: around every value the predicates
	// compare with, plus a few anywhere on the curve.
	pts := []uint64{segLo, segHi, hc, hc + 1, hc + 2, upper - 1, upper, upper + 1}
	first, num := kb.x.FrameObjects(f)
	h := hc
	for t := 0; t < num; t++ {
		id := first + t
		if t > 0 {
			if rng.Intn(3) == 0 {
				continue // no header yet
			}
			if rng.Intn(3) > 0 {
				h = min(h+uint64(rng.Intn(4)), upper-1) // repeats are likely
			}
		}
		kb.objEp[id] = kb.epoch
		kb.objHC[id] = h
		if rng.Intn(2) == 0 {
			kb.retEp[id] = kb.epoch
		}
		pts = append(pts, h, h+1)
	}
	size := kb.x.DS.Curve.Size()
	for k := rng.Intn(4); k > 0; k-- {
		pts = append(pts, uint64(rng.Int63n(int64(size))))
	}
	// A subset of the points, sorted and deduplicated, then cut into
	// ranges: consecutive points form a range or a hole, and now and then
	// a point is an empty range of its own.
	rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	pts = pts[:1+rng.Intn(len(pts))]
	slices.Sort(pts)
	pts = slices.Compact(pts)
	targets := kb.pend.targets[:0]
	for k := 0; k+1 < len(pts); k++ {
		if pts[k] >= size {
			break
		}
		if rng.Intn(8) == 0 {
			targets = append(targets, hilbert.Range{Lo: pts[k], Hi: pts[k]})
		}
		if rng.Intn(3) > 0 {
			targets = append(targets, hilbert.Range{Lo: pts[k], Hi: min(pts[k+1], size)})
		}
	}
	kb.pend.targets = targets
	return j, i, next
}

// fuzzBeds are the small indexes FuzzPendingSet scripts run over, built
// once: layouts[i] pairs with alt[i], a second shard directory to
// resync onto (nil where the layout is not sharded).
var fuzzBeds struct {
	once    sync.Once
	layouts []*Layout
	alt     []*Layout
}

func fuzzLayouts(t testing.TB) ([]*Layout, []*Layout) {
	b := &fuzzBeds
	b.once.Do(func() {
		add := func(cfg Config, n int, mc *MultiConfig, altBounds []int) {
			ds := dataset.Uniform(n, 5, int64(n))
			x, err := Build(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lay, alt := x.single, (*Layout)(nil)
			if mc != nil {
				lay = mustLayout(t, x, *mc)
			}
			if altBounds != nil {
				m := *mc
				m.ShardBounds = altBounds
				alt = mustLayout(t, x, m)
			}
			b.layouts = append(b.layouts, lay)
			b.alt = append(b.alt, alt)
		}
		add(Config{}, 40, nil, nil)
		add(Config{Segments: 2}, 40, nil, nil)
		add(Config{Sizing: SizingPaperTable, Segments: 3}, 90, nil, nil)
		add(Config{}, 40, &MultiConfig{Channels: 2, Scheduler: SchedStripe, SwitchSlots: 1}, nil)
		add(Config{}, 40, &MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 2}, nil)
		add(Config{Segments: 2}, 40, &MultiConfig{Channels: 4, Scheduler: SchedSplit}, nil)
		add(Config{Sizing: SizingPaperTable}, 90, &MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 1}, nil)
		add(Config{}, 40, &MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
			ShardBounds: []int{0, 10, 25, 40}}, []int{0, 3, 30, 40})
	})
	return b.layouts, b.alt
}

// fuzzTargets draws a sorted, disjoint target set over the curve.
func fuzzTargets(rng *rand.Rand, size uint64) []hilbert.Range {
	var out []hilbert.Range
	at := uint64(rng.Int63n(int64(size)/4 + 1))
	for at < size && len(out) < 12 {
		hi := at + 1 + uint64(rng.Int63n(int64(size)/6+1))
		if hi > size {
			hi = size
		}
		out = append(out, hilbert.Range{Lo: at, Hi: hi})
		at = hi + 1 + uint64(rng.Int63n(int64(size)/8+1))
	}
	return out
}

// FuzzPendingSet drives a knowledge base through a script of
// learn-frame / header / retrieve / shrink-targets / move / reset /
// resync steps over a small index and holds the pending sets and both
// choosers against the walk after every step. A third of the queries
// are kNN-like: the whole curve, then a search disk whose radius only
// shrinks.
func FuzzPendingSet(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0, 9, 2, 3, 3, 3, 4, 1, 5, 7, 0, 12, 4, 0})
	f.Add(int64(4), []byte{0, 5, 1, 20, 0, 6, 4, 2, 4, 2, 5, 30, 3, 5, 6, 1, 0, 8})
	f.Add(int64(7), []byte{0, 2, 0, 30, 0, 12, 7, 0, 1, 13, 5, 99, 7, 0, 2, 12, 3, 12})
	f.Add(int64(6), []byte{1, 1, 1, 2, 1, 3, 2, 1, 2, 2, 3, 1, 3, 2, 4, 0, 4, 0, 4, 0})
	f.Add(int64(3), []byte{0, 7, 4, 120, 0, 9, 2, 9, 4, 60, 0, 20, 4, 31, 3, 9, 4, 8, 4, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) { runPendingScript(t, seed, script) })
}

// TestPendingSetScripts runs FuzzPendingSet's body over random scripts,
// so a plain `go test` covers more of the script space than the seeds.
func TestPendingSetScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		script := make([]byte, 2*(1+rng.Intn(60)))
		rng.Read(script)
		runPendingScript(t, int64(i), script)
	}
}

// TestDiskVersionNeverAliases drives one kNN query's search disk
// through 3 × 2^8 shrinks, a scripted sequence of ever-smaller disks,
// and holds the positional chooser against the walk at every hop. A
// unit stamped under one disk and not read again for a full turn of the
// 8-bit version counter must not pass as current when the counter comes
// round to its stamp: every frame is known and retrieved except the one
// nearest the centre (A) and three far ones (U1, U2, U3, in position
// order after A, ever nearer the centre). A hop from A reads the first
// far unit still pending, and runs only when the counter is back at 1;
// every other hop reads A alone. Each far unit leaves the disk within
// the turn after it was read, so a stamp that aliases its version
// leaves it pending where the walk has moved on.
func TestDiskVersionNeverAliases(t *testing.T) {
	ds := dataset.Uniform(200, 6, 1)
	x, err := Build(ds, Config{Segments: 1})
	if err != nil {
		t.Fatal(err)
	}
	if x.NO != 1 || x.NF != ds.N() {
		t.Fatalf("need one object a frame, have %d", x.NO)
	}
	c := openClient(x.single, 0, nil)
	kb := c.kb
	side := ds.Curve.Side()
	disk := hilbert.Disk{Curve: ds.Curve, Qx: float64(side / 2), Qy: float64(side / 2), R2: math.Inf(1)}
	dist2 := func(f int) float64 {
		cx, cy := ds.Curve.Decode(x.MinHC(f))
		dx, dy := float64(cx)-disk.Qx, float64(cy)-disk.Qy
		return dx*dx + dy*dy
	}

	// A is the frame nearest the centre; the far frames follow it in
	// position order, each nearer than the last: U1 among the farthest
	// quarter, U2 in the middle, U3 nearer than a fifth of the frames.
	a := 0
	for f := range x.NF {
		if dist2(f) < dist2(a) {
			a = f
		}
	}
	byDist := make([]float64, x.NF)
	for f := range byDist {
		byDist[f] = dist2(f)
	}
	slices.Sort(byDist)
	bands := [][2]float64{
		{byDist[3*x.NF/4], math.Inf(1)},
		{byDist[2*x.NF/5], byDist[3*x.NF/5]},
		{dist2(a), byDist[x.NF/5]},
	}
	var far []int
	for k := 1; k < x.NF && len(far) < len(bands); k++ {
		f := (a + k) % x.NF
		b := bands[len(far)]
		if d := dist2(f); d > b[0] && d < b[1] && (len(far) == 0 || d < dist2(far[len(far)-1])) {
			far = append(far, f)
		}
	}
	if len(far) < len(bands) {
		t.Fatal("no three far frames of the index fit the scenario")
	}

	kb.retarget([]hilbert.Range{{Lo: 0, Hi: ds.Curve.Size()}})
	for f := range x.NF {
		kb.addFrameFact(f, x.MinHC(f))
		if f != a && !slices.Contains(far, f) {
			kb.markRetrieved(f)
		}
	}

	// The squared radius falls linearly between knots: above U1 at the
	// first shrink, then below each far frame by the end of the turn it
	// was read in, and above A to the last.
	turn := verWrap - 1
	shrinks := 3 * verWrap
	knots := []struct {
		h  int
		r2 float64
	}{
		{1, dist2(far[0]) + 1},
		{turn, (dist2(far[0]) + dist2(far[1])) / 2},
		{2 * turn, (dist2(far[1]) + dist2(far[2])) / 2},
		{3 * turn, (dist2(far[2]) + dist2(a)) / 2},
		{shrinks, (dist2(far[2]) + 3*dist2(a)) / 4},
	}
	farReads := 0
	for h := 1; h <= shrinks; h++ {
		k := 0
		for knots[k+1].h < h {
			k++
		}
		lo, hi := knots[k], knots[k+1]
		r2 := lo.r2 + (hi.r2-lo.r2)*float64(h-lo.h)/float64(hi.h-lo.h)
		if r2 >= disk.R2 {
			t.Fatalf("shrink %d: radius² %g does not shrink from %g", h, r2, disk.R2)
		}
		disk.R2 = r2
		kb.shrinkDisk(disk)

		from := (kb.spanPos(0, a) + x.NF - 1) % x.NF // A is next
		if h%turn == 1 {
			from = kb.spanPos(0, a) // the far units come first
			farReads++
		}
		got, ok := kb.nextPending(from)
		want, wok := kb.nextUsefulMarked(from, disk.AppendRanges(nil), nil)
		if got != want || ok != wok {
			t.Fatalf("shrink %d (radius² %g) from position %d: nextPending = (%d,%v), the walk (%d,%v)",
				h, r2, from, got, ok, want, wok)
		}
	}
	checkUnits(t, kb, disk.AppendRanges(nil), "after the last shrink")
	if farReads < 4 {
		t.Fatalf("the far units were read %d times, want one per turn of the counter", farReads)
	}
}

// runPendingScript is the body FuzzPendingSet and TestPendingSetScripts
// share: the seed picks the layout, the probe and the targets, the
// script's byte pairs are (step, argument).
func runPendingScript(t testing.TB, seed int64, script []byte) {
	lays, alts := fuzzLayouts(t)
	li := int(uint64(seed) % uint64(len(lays)))
	lay, alt := lays[li], alts[li]
	x := lay.X
	ds := x.DS
	rng := rand.New(rand.NewSource(seed))
	c := openClient(lay, rng.Int63n(int64(lay.ProbeCycle())), nil)
	kb := c.kb
	var targets []hilbert.Range
	var disk hilbert.Disk // the kNN-like query's search disk, R2 +Inf until one is installed
	knn := false
	newQuery := func() {
		if knn = rng.Intn(3) == 0; knn {
			side := float64(ds.Curve.Side())
			disk = hilbert.Disk{Curve: ds.Curve, Qx: float64(rng.Intn(int(side))), Qy: float64(rng.Intn(int(side))), R2: math.Inf(1)}
			if rng.Intn(2) == 0 {
				disk.Qx += rng.Float64() - 0.5
			}
			targets = []hilbert.Range{{Lo: 0, Hi: ds.Curve.Size()}}
		} else {
			targets = fuzzTargets(rng, ds.Curve.Size())
		}
		kb.retarget(targets)
	}
	newQuery()

	check := func(step int) {
		ctx := fmt.Sprintf("layout %d step %d", li, step)
		for _, p := range []int{0, rng.Intn(x.NF), x.NF - 1} {
			got, ok := kb.nextPending(p)
			want, wok := kb.nextUsefulMarked(p, targets, nil)
			if got != want || ok != wok {
				t.Fatalf("%s: nextPending(%d) = (%d,%v), the walk (%d,%v)", ctx, p, got, ok, want, wok)
			}
		}
		if c.lay.splitData() {
			got, ok := c.nextPendingTimed()
			want, wok := c.nextVisitTimed(targets, nil)
			if got != want || ok != wok {
				t.Fatalf("%s: nextPendingTimed = (%d,%v), the walk (%d,%v)", ctx, got, ok, want, wok)
			}
		}
		checkUnits(t, kb, targets, ctx)
	}
	check(-1)
	for s := 0; s+1 < len(script) && s < 400; s += 2 {
		op, arg := script[s]%8, int(script[s+1])
		switch op {
		case 0, 1: // learn a frame
			fr := (arg + int(op)*256) % x.NF
			kb.addFrameFact(fr, x.MinHC(fr))
		case 2: // receive a header of a known frame
			fr := arg % x.NF
			if kb.frameKnown(fr) {
				first, num := x.FrameObjects(fr)
				o := (arg / x.NF) % num
				kb.addHeader(fr, o, ds.Objects[first+o].HC)
			}
		case 3: // retrieve a located object
			if id := arg % ds.N(); kb.objLocated(id) {
				kb.markRetrieved(id)
			}
		case 4: // the targets shrink
			if knn {
				// The search disk shrinks to the distance of an object, on
				// the boundary, or to a radius of arg/4.
				r2 := float64(arg*arg) / 16
				if arg&1 == 0 {
					o := ds.Objects[arg%ds.N()].P
					dx, dy := float64(o.X)-disk.Qx, float64(o.Y)-disk.Qy
					r2 = float64(dx*dx) + float64(dy*dy)
				}
				disk.R2 = min(disk.R2, r2)
				kb.shrinkDisk(disk)
				targets = disk.AppendRanges(nil)
				break
			}
			if len(targets) == 0 {
				break
			}
			// A target list rewritten in place, and recorded as a shrink
			// (the choosers do not read end, which only bounds the fetch).
			k := arg % len(targets)
			switch r := &targets[k]; {
			case arg&1 == 0 && r.Hi-r.Lo > 1:
				r.Lo += (r.Hi - r.Lo) / 2
			case arg&2 == 0 && r.Hi-r.Lo > 1:
				r.Hi--
			default:
				targets = append(targets[:k], targets[k+1:]...)
			}
			kb.pend.targets = targets
			kb.shrunk()
		case 5: // the receiver moves: another channel, another phase
			ch := arg % c.lay.Channels()
			c.rx.Tune(ch)
			c.rx.DozeUntilPos((arg * 7) % c.lay.ChanLen(ch))
		case 6: // a new query
			c.Reset(int64(arg)*13, nil)
			newQuery()
		case 7: // the shard directory swaps
			if alt != nil {
				to := alt
				if c.lay == alt {
					to = lay
				}
				if err := c.Resync(to); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(s / 2)
	}
}

// TestHopCostSplitArm counts, on the massive testbed's split arm (N =
// 10 000, four channels, 10 % windows), what one hop costs: the units a
// fresh walk derives and prices per hop — what every hop paid before
// the pending set — against the candidates the pending-set chooser
// prices.
func TestHopCostSplitArm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the walk on every hop of 10k-object queries")
	}
	ds := dataset.Uniform(10000, 8, 1)
	x, err := Build(ds, Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	lay := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	rng := rand.New(rand.NewSource(1))
	side := int(ds.Curve.Side())
	c := openClient(lay, 0, nil)
	const queries = 100
	var hops, walked, known, priced int
	c.onHop = func(p, next int, ok bool) {
		hops++
		walked += len(walkUnits(c.kb, c.scr.targets))
		for j := 0; j < c.kb.nspan; j++ {
			known += c.kb.known[j].Len()
			chans := map[int32]bool{}
			for _, i := range c.kb.pend.frames[j].AppendTo(nil) {
				chans[lay.dataCh[c.kb.spanPos(j, i)]] = true
			}
			priced += len(chans)
			if c.kb.pend.gaps[j].Len() > 0 {
				priced++
			}
		}
	}
	for q := 0; q < queries; q++ {
		c.Reset(rng.Int63n(int64(lay.ProbeCycle())), nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), uint32(side/10), uint32(side))
		c.Window(w)
	}
	perHop := func(n int) float64 { return float64(n) / float64(hops) }
	t.Logf("%d queries: %.0f hops per query; per hop %.0f known frames, %.1f units a walk derives and prices, %.2f candidates the pending set prices",
		queries, float64(hops)/queries, perHop(known), perHop(walked), perHop(priced))
	if perHop(priced) > float64(lay.Channels()) {
		t.Errorf("the chooser prices %.2f candidates per hop, more than one per channel", perHop(priced))
	}
}
