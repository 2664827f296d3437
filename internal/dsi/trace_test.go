package dsi

import (
	"strings"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

func TestTraceRecordsQuerySteps(t *testing.T) {
	ds := dataset.Uniform(100, 6, 95)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 7, nil)
	var events []Event
	c.SetTracer(func(e Event) { events = append(events, e) })
	ids, st := c.Window(spatial.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30})
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	if events[0].Op != OpProbe {
		t.Errorf("first event %v, want probe", events[0].Op)
	}
	var tables, objects int
	var readPackets int64
	prevSlot := int64(-1)
	for _, e := range events {
		if e.Slot < prevSlot {
			t.Fatalf("events not in slot order: %d after %d", e.Slot, prevSlot)
		}
		prevSlot = e.Slot
		if !e.OK {
			t.Fatalf("lossless run traced a lost packet: %v", e)
		}
		switch e.Op {
		case OpProbe:
			readPackets++
		case OpTableRead:
			tables++
			readPackets += int64(e.Arg)
		case OpHeaderRead:
			readPackets++
		case OpObjectRead:
			objects++
			readPackets += int64(x.ObjPackets)
		}
	}
	if tables == 0 {
		t.Error("no table reads traced")
	}
	if objects != len(ids) {
		t.Errorf("traced %d object reads for %d results", objects, len(ids))
	}
	// Tuning must be fully explained by traced events.
	if readPackets != st.TuningPackets {
		t.Errorf("traced %d packets, stats say %d", readPackets, st.TuningPackets)
	}
}

func TestTraceLossMarksEvents(t *testing.T) {
	ds := dataset.Uniform(100, 6, 97)
	x, _ := Build(ds, Config{})
	loss := broadcast.NewLossModel(0.5, 11)
	c := openClient(x.single, 3, loss)
	lost := 0
	c.SetTracer(func(e Event) {
		if !e.OK {
			lost++
		}
	})
	c.KNN(spatial.Point{X: 30, Y: 30}, 5, Conservative)
	if lost == 0 {
		t.Error("theta=0.5 run traced no lost packets")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	ds := dataset.Uniform(50, 6, 99)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 0, nil)
	// Must not panic with no tracer installed.
	c.Window(spatial.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
	c2 := openClient(x.single, 0, nil)
	c2.SetTracer(func(Event) {})
	c2.SetTracer(nil) // disable again
	c2.Window(spatial.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
}

func TestEventAndOpStrings(t *testing.T) {
	if OpProbe.String() != "probe" || OpTableRead.String() != "table" ||
		OpHeaderRead.String() != "header" || OpObjectRead.String() != "object" {
		t.Error("op strings wrong")
	}
	if !strings.Contains(Op(42).String(), "42") {
		t.Error("unknown op string")
	}
	e := Event{Slot: 5, Op: OpObjectRead, Pos: 2, Frame: 3, Arg: 7, OK: true}
	s := e.String()
	for _, want := range []string{"object", "pos=2", "frame=3", "obj=7", "ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	e.OK = false
	if !strings.Contains(e.String(), "lost") {
		t.Error("lost event not marked")
	}
	probe := Event{Op: OpProbe, OK: true}
	if !strings.Contains(probe.String(), "probe") {
		t.Error("probe string")
	}
	hdr := Event{Op: OpHeaderRead, OK: true}
	if !strings.Contains(hdr.String(), "header") {
		t.Error("header string")
	}
	tab := Event{Op: OpTableRead, OK: true}
	if !strings.Contains(tab.String(), "table") {
		t.Error("table string")
	}
	unknown := Event{Op: Op(42)}
	if !strings.Contains(unknown.String(), "op(42)") {
		t.Error("unknown event string")
	}
}
