// The recovering half of WireReceiver: what the byte-level receiver does
// when the stream carries parity.
//
// Reception works unit-at-a-time, literally: each run of a unit's
// slots the receiver takes in — a table, an object from where the
// client joins it, the rest of a unit behind a lost header, a parity
// tail — is one source read and one tuner batch. A clean unit read
// costs exactly what it costs on an uncoded stream — parity is dozed
// past, never received. When a read loses packets, the receiver
// continues into the unit's parity tail (extra tuning, honestly
// charged), validates each parity frame against the unit it expects,
// and solves the erasures per group. Losses beyond the code distance
// degrade gracefully: the read reports failure and the client falls
// back to the plain rebroadcast-wait retry it has always had — which is
// all an uncoded stream ever offers.
//
// The receiver buffers the current group window: member payloads seen
// while working through a unit (a header read, a recovery) are kept,
// keyed by the unit's occurrence, so a later Object call — the same
// occurrence after a header, or a whole cycle later after a header
// recovery — claims members already received instead of re-reading
// them. An uncoded stream has no groups and keeps no window: every
// read there is final, which is the simulator's cost model bit for
// bit.

package station

import (
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

var _ dsi.Receiver = (*WireReceiver)(nil)

// Recovered returns the number of packets reconstructed from parity —
// losses the code absorbed that would otherwise have cost a
// rebroadcast wait.
func (r *WireReceiver) Recovered() int { return r.recovered }

// Forget empties the recovered-unit cache, as if the client had just
// powered on. The cache deliberately survives Reset (a real client
// keeps what it recovered across queries); a harness that needs every
// query independent of the ones its receiver served before calls this
// between queries.
func (r *WireReceiver) Forget() { r.cache.drop() }

// CacheHits returns the number of Table reads served entirely from the
// recovered-unit cache — re-reads that cost zero air slots.
func (r *WireReceiver) CacheHits() int { return r.cacheHits }

// allMask returns the bitmap of an n-member unit.
func allMask(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// tableUnit and dataUnit address the protected unit a (pos, o) request
// reads — its channel and where it starts in both slot domains — from
// catalog knowledge alone. The physical start slot is the unit's
// identity on its channel (window and cache key).
func (r *WireReceiver) tableUnit(pos int) (fecUnit, int) {
	ch, slot := r.lay.TablePlace(pos)
	log := slot % r.lay.ChanLen(ch)
	return fecUnit{logStart: log, physStart: r.physOf(ch, log), n: r.x.TablePackets, table: true, pos: pos, obj: -1}, ch
}

func (r *WireReceiver) dataUnit(pos, o int) (fecUnit, int) {
	ch, slot := r.lay.DataPlace(pos)
	log := (slot + o*r.x.ObjPackets) % r.lay.ChanLen(ch)
	return fecUnit{logStart: log, physStart: r.physOf(ch, log), n: r.x.ObjPackets, pos: pos, obj: o}, ch
}

// expLen returns the expected payload length of member i of a unit —
// pure catalog geometry, which is what lets capacity-sized parity
// symbols reconstruct variable-length payloads.
func (r *WireReceiver) expLen(u *fecUnit, i int) int {
	x := r.x
	capacity := x.Cfg.Capacity
	var total int
	if u.table {
		total = wire.LayoutTableSize(r.lay)
	} else {
		_, num := x.FrameObjects(x.PosToFrame(u.pos))
		if u.obj < num {
			total = x.Cfg.ObjectBytes
		}
	}
	return min(max(total-i*capacity, 0), capacity)
}

// members returns the member scratch sized for a unit, cleared.
func (r *WireReceiver) members(n int) [][]byte {
	if cap(r.payBuf) < n {
		r.payBuf = make([][]byte, n)
	}
	pay := r.payBuf[:n]
	clear(pay)
	return pay
}

// readTail receives a unit's parity tail, validating every parity
// frame against the unit and tail position it should occupy; anything
// corrupt, foreign, or mislabelled counts as a lost parity packet.
// Returns the per-tail-offset parity symbols (nil where lost).
func (r *WireReceiver) readTail(u *fecUnit, code wire.FECCode) [][]byte {
	capacity := r.x.Cfg.Capacity
	if cap(r.tailBuf) < code.Tail() {
		r.tailBuf = make([][]byte, code.Tail())
	}
	tail := r.tailBuf[:code.Tail()]
	clear(tail)
	for at := 0; at < len(tail); at += 64 {
		pkts, good := r.readRun(u.n+at, u.n+min(at+64, len(tail)))
		for j := range pkts {
			if good&(1<<uint(j)) == 0 || pkts[j].Flags&flagParity == 0 {
				continue
			}
			h, sym, err := wire.DecodeParity(pkts[j].Payload, capacity)
			if err != nil {
				continue
			}
			t := at + j
			grp, row := t%code.Groups, t/code.Groups
			wantMembers, k := code.GroupMembers(u.n, grp)
			if h.Unit != uint32(u.logStart) || int(h.Group) != grp || int(h.Index) != row ||
				int(h.R) != code.Parity || int(h.K) != k || h.Members != wantMembers {
				continue
			}
			tail[t] = sym
		}
	}
	return tail
}

// repair continues a lossy unit read into the unit's parity tail
// and solves for the members in need: pay/okm describe what the read
// got, and on success every solved member's payload (cut to its
// catalog length) is filled into pay and its bit set in the returned
// mask. It fails — having paid for the tail — when the losses exceed
// the code distance, and at once, with nothing received, when the
// stream carries no parity for this kind of unit.
func (r *WireReceiver) repair(u *fecUnit, code wire.FECCode, pay [][]byte, okm, need uint64) (uint64, bool) {
	if !code.Enabled() {
		return okm, false
	}
	tail := r.readTail(u, code)
	syms, ok := r.solve.recoverUnit(code, u.n, r.x.Cfg.Capacity, pay, okm, tail, need)
	if r.met != nil {
		if ok {
			r.met.GroupSolves.Inc()
		} else {
			r.met.SolveFailures.Inc()
		}
	}
	if !ok {
		return okm, false
	}
	for i, sym := range syms {
		if sym != nil {
			pay[i] = sym[:r.expLen(u, i)]
			okm |= 1 << uint(i)
			r.recovered++
			if r.met != nil {
				r.met.Recovered.Inc()
			}
		}
	}
	return okm, true
}

// fecSolver is the receiver-owned scratch of the erasure solve, reused
// across recoveries like payBuf and tailBuf.
type fecSolver struct {
	arena           []byte // one Capacity-sized cell per member: short good members zero-padded, solved ones
	out, data, rows [][]byte
	idx             []int
	rs              wire.RSSolver
}

// recoverUnit solves the erasures of one unit from its parity tail.
// pay[i]/okMask describe the members (okMask bit i set when member i
// was received good; empty payloads are legitimate), tail is
// readTail's output, and need marks the members that must be known
// good afterwards. Groups with no needed erasure are skipped (their
// members stay unknown); a needed group whose equations do not
// determine its erasures fails the whole recovery. On success the
// returned slice carries a capacity-sized symbol for every recovered
// member (nil for members that were already good or were skipped).
// Everything returned is scratch: the slice and the symbols — each in
// its member's arena cell — hold until the next solve, so a caller
// copies what it keeps (the group window, the table buffer and the
// unit cache all do).
func (s *fecSolver) recoverUnit(code wire.FECCode, n, capacity int, pay [][]byte, okMask uint64, tail [][]byte, need uint64) ([][]byte, bool) {
	if len(s.arena) < n*capacity {
		s.arena = make([]byte, n*capacity)
	}
	if cap(s.out) < n {
		s.out = make([][]byte, n)
	}
	s.out = s.out[:n]
	clear(s.out)
	for g := 0; g < code.Groups; g++ {
		missing := uint64(0)
		for i := g; i < n; i += code.Groups {
			if okMask&(1<<uint(i)) == 0 {
				missing |= 1 << uint(i)
			}
		}
		if missing == 0 || missing&need == 0 {
			continue
		}
		data, idx := s.data[:0], s.idx[:0]
		for i := g; i < n; i += code.Groups {
			switch {
			case okMask&(1<<uint(i)) == 0:
				data = append(data, nil)
			case len(pay[i]) == capacity:
				data = append(data, pay[i]) // already a whole symbol: read, never written
			default:
				sym := s.arena[i*capacity : (i+1)*capacity]
				clear(sym[copy(sym, pay[i]):])
				data = append(data, sym)
			}
			idx = append(idx, i)
		}
		rows := s.rows[:0]
		for j := 0; j < code.Parity; j++ {
			rows = append(rows, tail[j*code.Groups+g])
		}
		s.data, s.idx, s.rows = data, idx, rows
		if !s.rs.Recover(data, rows) {
			return nil, false
		}
		// The solved symbols alias the solver, which the next group
		// reuses: each moves into its member's own cell, unused so far
		// because the member was erased.
		for m, i := range idx {
			if okMask&(1<<uint(i)) == 0 {
				cell := s.arena[i*capacity : (i+1)*capacity : (i+1)*capacity]
				copy(cell, data[m])
				s.out[i] = cell
			}
		}
	}
	return s.out, true
}

// groupWindow holds the member payloads of one unit occurrence, in
// storage of its own: the reads it is filled from are scratch.
type groupWindow struct {
	ch   int
	unit int   // physical start slot of the unit on ch; -1 when empty
	abs  int64 // absolute physical slot of member 0 when recorded
	ver  uint32
	ok   uint64   // members known good (payload may be legitimately empty)
	pay  [][]byte // pay[i] lies in buf's i-th Capacity-sized cell
	buf  []byte
}

// setWindow records a unit occurrence's member payloads for later
// claims, copying each into the window's cell for that member. A member
// the caller refilled from the window is already in its cell and copies
// onto itself. Only a coded stream keeps a window; callers ask first.
func (r *WireReceiver) setWindow(ch int, u *fecUnit, abs int64, pay [][]byte, ok uint64) {
	w := &r.win
	w.ch = ch
	w.unit = u.physStart
	w.abs = abs
	w.ver = r.ver
	w.ok = ok
	capacity := r.x.Cfg.Capacity
	if len(w.buf) < len(pay)*capacity {
		// First use; were it ever to grow, cells of the old storage that
		// pay still holds stay readable while the loop below moves them.
		w.buf = make([]byte, len(pay)*capacity)
	}
	w.pay = w.pay[:0]
	for i, p := range pay {
		w.pay = append(w.pay, append(w.buf[i*capacity:i*capacity:(i+1)*capacity], p...))
	}
}

// windowHit reports whether the group window holds this unit with an
// occurrence anchor a whole number of cycles before abs (same content
// under a static schedule generation — the adopted version is part of
// the key).
func (r *WireReceiver) windowHit(ch int, u *fecUnit, abs int64) bool {
	if r.win.unit != u.physStart || r.win.ch != ch || r.win.ver != r.ver {
		return false
	}
	d := abs - r.win.abs
	return d >= 0 && d%int64(r.cycleLen(ch)) == 0
}
