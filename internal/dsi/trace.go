package dsi

import "fmt"

// Event is one step of a client's query execution, for tracing and
// debugging. Slot is the absolute packet clock when the step completed.
type Event struct {
	Slot int64
	Op   Op
	// Pos is the cycle position of the frame involved (when relevant).
	Pos int
	// Frame is the frame id involved (when relevant).
	Frame int
	// Arg carries op-specific detail: the object id for ObjectRead and
	// HeaderRead, the number of packets for TableRead.
	Arg int
	// OK is false when the packets involved were corrupted.
	OK bool
}

// Op classifies a trace event.
type Op int

const (
	// OpProbe is the initial probe packet.
	OpProbe Op = iota
	// OpTableRead is an index-table reception.
	OpTableRead
	// OpHeaderRead is an object-header reception (loss fallback or
	// in-frame scanning).
	OpHeaderRead
	// OpObjectRead is a full object retrieval.
	OpObjectRead
)

func (o Op) String() string {
	switch o {
	case OpProbe:
		return "probe"
	case OpTableRead:
		return "table"
	case OpHeaderRead:
		return "header"
	case OpObjectRead:
		return "object"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

func (e Event) String() string {
	status := "ok"
	if !e.OK {
		status = "lost"
	}
	switch e.Op {
	case OpProbe:
		return fmt.Sprintf("@%-8d probe %s", e.Slot, status)
	case OpTableRead:
		return fmt.Sprintf("@%-8d table pos=%d frame=%d packets=%d %s", e.Slot, e.Pos, e.Frame, e.Arg, status)
	case OpHeaderRead:
		return fmt.Sprintf("@%-8d header pos=%d frame=%d obj=%d %s", e.Slot, e.Pos, e.Frame, e.Arg, status)
	case OpObjectRead:
		return fmt.Sprintf("@%-8d object pos=%d frame=%d obj=%d %s", e.Slot, e.Pos, e.Frame, e.Arg, status)
	default:
		return fmt.Sprintf("@%-8d %v", e.Slot, e.Op)
	}
}

// SetTracer installs a callback invoked for every client step. Pass nil
// to disable tracing. Tracing does not affect costs or results.
func (s *Session) SetTracer(fn func(Event)) { s.trace = fn }

func (s *Session) emit(e Event) {
	if s.trace != nil {
		e.Slot = s.rx.Now()
		s.trace(e)
	}
}
