// FECReceiver: the recovering byte-level receiver. It wraps a
// WireReceiver behind the same dsi.Receiver seam — zero client
// changes — but runs its tuner on the physical (parity-bearing) air a
// coded station transmits, presenting the client a logical facade:
// Pos and DozeUntilPos speak logical cycle positions (parity slots map
// forward to the next content slot), while Now, PhaseOf and Stats stay
// physical, because parity slots are real air time.
//
// Reception works unit-at-a-time. A clean unit read costs exactly what
// the plain WireReceiver pays — parity is dozed past, never received.
// When a read loses packets, the receiver continues into the unit's
// parity tail (extra tuning, honestly charged), validates each parity
// frame against the unit it expects, and solves the erasures per
// group. Losses beyond the code distance degrade gracefully: the read
// reports failure and the client falls back to the plain
// rebroadcast-wait retry it has always had.
//
// The receiver buffers the current group window: member payloads seen
// while working through a unit (a header read, a recovery) are kept,
// keyed by the unit's occurrence, so a later Object call — the same
// occurrence after a header, or a whole cycle later after a header
// recovery — claims members already received instead of re-reading
// them. With the zero FECConfig every method delegates straight to the
// wrapped WireReceiver: the rate-1 path is the plain wire path,
// bit for bit.

package station

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// FECReceiver implements dsi.Receiver over a coded PacketSource.
type FECReceiver struct {
	w    *WireReceiver
	cfg  wire.FECConfig
	geo  *fecGeom  // nil when the code is disabled (pure delegation)
	fsrc FECSource // the source's FEC descriptor feed

	descPackets int

	// Group window: member payloads of one unit occurrence.
	win struct {
		ch   int
		unit int32 // unit index within the channel; -1 when empty
		abs  int64 // absolute physical slot of member 0 when recorded
		ver  uint32
		ok   uint64 // members known good (payload may be legitimately empty)
		pay  [][]byte
	}

	payBuf  [][]byte  // member scratch
	tailBuf [][]byte  // parity-tail scratch
	solve   fecSolver // erasure-solve scratch

	// cache keeps recently recovered units across queries (feccache.go):
	// Table re-reads of a unit that cost a recovery decode from it with
	// zero air slots. Survives Reset; dropped on schedule adoption.
	cache fecCache

	recovered int // packets reconstructed from parity since construction
	cacheHits int // table reads served from the recovered-unit cache

	met *obs.FECMetrics // optional coding-event counters; nil when unobserved
}

// SetObs installs the FEC counter bundle; nil disables counting. Not
// safe to call concurrently with reception.
func (r *FECReceiver) SetObs(m *obs.FECMetrics) { r.met = m }

// Recovered returns the number of packets reconstructed from parity —
// losses the code absorbed that would otherwise have cost a
// rebroadcast wait.
func (r *FECReceiver) Recovered() int { return r.recovered }

// Forget empties the recovered-unit cache, as if the client had just
// powered on. The cache deliberately survives Reset (a real client
// keeps what it recovered across queries); a harness that needs every
// query independent of the ones its receiver served before calls this
// between queries.
func (r *FECReceiver) Forget() { r.cache.drop() }

// CacheHits returns the number of Table reads served entirely from the
// recovered-unit cache — re-reads that cost zero air slots.
func (r *FECReceiver) CacheHits() int { return r.cacheHits }

// NewFECReceiver returns a recovering byte-level receiver tuned to the
// layout's start channel at the given absolute slot of the physical
// (parity-bearing) stream. cfg must be the code the source transmits —
// it is catalog knowledge, validated against the source's FEC
// descriptor at construction. The zero cfg delegates everything to a
// plain WireReceiver over the logical air.
func NewFECReceiver(lay *dsi.Layout, version uint32, src PacketSource, cfg wire.FECConfig, probeSlot int64, loss *broadcast.LossModel) (*FECReceiver, error) {
	w, err := NewWireReceiver(lay, version, src, probeSlot, loss)
	if err != nil {
		return nil, err
	}
	r := &FECReceiver{w: w, cfg: cfg}
	r.win.unit = -1
	if !cfg.Enabled() {
		return r, nil
	}
	geo, err := newFECGeom(lay, cfg)
	if err != nil {
		return nil, err
	}
	fsrc, ok := src.(FECSource)
	if !ok {
		return nil, fmt.Errorf("station: source carries no FEC descriptor for code %+v", cfg)
	}
	desc, _ := fsrc.FECDescAt(probeSlot)
	got, _, err := wire.DecodeFECDesc(desc)
	if err != nil {
		return nil, fmt.Errorf("station: source FEC descriptor: %w", err)
	}
	if got != cfg {
		return nil, fmt.Errorf("station: source transmits code %+v, receiver configured for %+v", got, cfg)
	}
	r.geo = geo
	r.fsrc = fsrc
	r.descPackets = broadcast.PacketsFor(wire.FECDescSize, lay.X.Cfg.Capacity)
	// The facade's tuner runs on the physical air; probe slots and all
	// clock arithmetic are physical from here on.
	w.tu = broadcast.NewAirTuner(geo.air, lay.StartCh, probeSlot, loss)
	return r, nil
}

func (r *FECReceiver) on() bool { return r.geo != nil }

// countSolve counts one recovery attempt's outcome (cold path: only
// reached when loss forced a parity solve).
func (r *FECReceiver) countSolve(ok bool) {
	if r.met == nil {
		return
	}
	if ok {
		r.met.GroupSolves.Inc()
	} else {
		r.met.SolveFailures.Inc()
	}
}

// countRecovered counts one packet reconstructed from parity.
func (r *FECReceiver) countRecovered() {
	r.recovered++
	if r.met != nil {
		r.met.Recovered.Inc()
	}
}

// CycleSlots returns the physical slots of one full broadcast cycle
// across all channels — what probe positions scale against (the coded
// analogue of Layout.ProbeCycle).
func (r *FECReceiver) CycleSlots() int {
	if !r.on() {
		return r.w.lay.ProbeCycle()
	}
	total := 0
	for ch := range r.geo.chs {
		total += r.geo.chs[ch].physLen
	}
	return total
}

// Layout returns the layout the receiver currently assumes on air.
func (r *FECReceiver) Layout() *dsi.Layout { return r.w.Layout() }

// Version returns the shard-directory version most recently adopted.
func (r *FECReceiver) Version() uint32 { return r.w.Version() }

// Now returns the absolute packet clock (physical slots).
func (r *FECReceiver) Now() int64 { return r.w.Now() }

// Pos returns the logical cycle position on the current channel; a
// radio sitting on a parity slot reports the next content position.
func (r *FECReceiver) Pos() int {
	if !r.on() {
		return r.w.Pos()
	}
	return int(r.geo.chs[r.w.tu.Channel()].logOf[r.w.tu.Pos()])
}

// Channel returns the channel the radio is tuned to.
func (r *FECReceiver) Channel() int { return r.w.Channel() }

// PhaseOf returns the absolute physical slot at which channel ch's
// adopted cycle has position 0.
func (r *FECReceiver) PhaseOf(ch int) int64 { return r.w.PhaseOf(ch) }

// Stats returns the metrics accumulated since the last Reset.
func (r *FECReceiver) Stats() broadcast.Stats { return r.w.Stats() }

// Tune retunes the radio to channel ch.
func (r *FECReceiver) Tune(ch int) { r.w.Tune(ch) }

// DozeUntilPos sleeps to the next occurrence of the logical position
// on the current channel, dozing past any parity in between.
func (r *FECReceiver) DozeUntilPos(pos int) {
	if !r.on() {
		r.w.DozeUntilPos(pos)
		return
	}
	r.w.tu.DozeUntilPos(int(r.geo.chs[r.w.tu.Channel()].log2phys[pos]))
}

// Next receives one packet at the current slot (the probe).
func (r *FECReceiver) Next() (broadcast.Slot, bool) { return r.w.Next() }

// Reset re-tunes the receiver at the given absolute physical slot with
// fresh metrics, dropping the group window (its occurrence anchors are
// meaningless after a re-tune). Adopted schedule knowledge persists,
// as on the plain WireReceiver.
func (r *FECReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	r.w.Reset(probeSlot, loss)
	r.win.unit = -1
}

// SetChannelLoss installs a per-channel loss model.
func (r *FECReceiver) SetChannelLoss(ch int, loss *broadcast.LossModel) error {
	return r.w.SetChannelLoss(ch, loss)
}

// Follow commits the client's re-seed onto a layout obtained from Poll.
func (r *FECReceiver) Follow(lay *dsi.Layout) {
	r.w.Follow(lay)
	r.cache.drop()
}

// allMask returns the bitmap of an n-member unit.
func allMask(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// tableUnit and dataUnit locate the geometry unit a (pos, o) request
// addresses, from catalog knowledge alone.
func (r *FECReceiver) tableUnit(pos int) (*fecUnit, int32, int) {
	lay := r.w.lay
	tc, ts := lay.TablePlace(pos)
	c := &r.geo.chs[tc]
	pp := c.log2phys[ts%lay.ChanLen(tc)]
	return &c.units[c.unitOf[pp]], c.unitOf[pp], tc
}

func (r *FECReceiver) dataUnit(pos, o int) (*fecUnit, int32, int) {
	lay := r.w.lay
	dc, dslot := lay.DataPlace(pos)
	c := &r.geo.chs[dc]
	pp := c.log2phys[(dslot+o*r.w.x.ObjPackets)%lay.ChanLen(dc)]
	return &c.units[c.unitOf[pp]], c.unitOf[pp], dc
}

// expLen returns the expected payload length of member i of a unit —
// pure catalog geometry, which is what lets capacity-sized parity
// symbols reconstruct variable-length payloads.
func (r *FECReceiver) expLen(u *fecUnit, i int) int {
	x := r.w.x
	capacity := x.Cfg.Capacity
	var total int
	if u.table {
		total = wire.LayoutTableSize(r.w.lay)
	} else {
		_, num := x.FrameObjects(x.PosToFrame(u.pos))
		if u.obj < num {
			total = x.Cfg.ObjectBytes
		}
	}
	l := total - i*capacity
	if l < 0 {
		l = 0
	}
	if l > capacity {
		l = capacity
	}
	return l
}

// members returns the member scratch sized for a unit, cleared.
func (r *FECReceiver) members(n int) [][]byte {
	if cap(r.payBuf) < n {
		r.payBuf = make([][]byte, n)
	}
	pay := r.payBuf[:n]
	for i := range pay {
		pay[i] = nil
	}
	return pay
}

// readTail receives a unit's parity tail, validating every parity
// frame against the unit and tail position it should occupy; anything
// corrupt, foreign, or mislabelled counts as a lost parity packet.
// Returns the per-tail-offset parity symbols (nil where lost).
func (r *FECReceiver) readTail(u *fecUnit, code wire.FECCode) [][]byte {
	w := r.w
	capacity := w.x.Cfg.Capacity
	if cap(r.tailBuf) < code.Tail() {
		r.tailBuf = make([][]byte, code.Tail())
	}
	tail := r.tailBuf[:code.Tail()]
	for t := range tail {
		tail[t] = nil
		pkt, good := w.read()
		if !good || pkt.Flags&flagParity == 0 {
			continue
		}
		h, sym, err := wire.DecodeParity(pkt.Payload, capacity)
		if err != nil {
			continue
		}
		grp, row := t%code.Groups, t/code.Groups
		wantMembers, k := code.GroupMembers(u.n, grp)
		if h.Unit != uint32(u.logStart) || int(h.Group) != grp || int(h.Index) != row ||
			int(h.R) != code.Parity || int(h.K) != k || h.Members != wantMembers {
			continue
		}
		tail[t] = sym
	}
	return tail
}

// fecSolver is the receiver-owned scratch of the erasure solve, reused
// across recoveries like payBuf and tailBuf.
type fecSolver struct {
	arena           []byte // zero-padded copies of short good members
	out, data, rows [][]byte
	idx             []int
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
// The slice itself is scratch, valid until the next solve; the
// recovered symbols in it are freshly allocated and the caller's to
// keep — nothing a caller may retain aliases the arena.
func (s *fecSolver) recoverUnit(code wire.FECCode, n, capacity int, pay [][]byte, okMask uint64, tail [][]byte, need uint64) ([][]byte, bool) {
	if len(s.arena) < n*capacity {
		s.arena = make([]byte, n*capacity)
	}
	s.out = append(s.out[:0], make([][]byte, n)...)
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
		if !wire.RSRecover(data, rows) {
			return nil, false
		}
		for m, i := range idx {
			if okMask&(1<<uint(i)) == 0 {
				s.out[i] = data[m]
			}
		}
	}
	return s.out, true
}

// setWindow records a unit occurrence's member payloads for later
// claims.
func (r *FECReceiver) setWindow(ch int, unit int32, abs int64, pay [][]byte, ok uint64) {
	r.win.ch = ch
	r.win.unit = unit
	r.win.abs = abs
	r.win.ver = r.w.ver
	r.win.ok = ok
	if cap(r.win.pay) < len(pay) {
		r.win.pay = make([][]byte, len(pay))
	}
	r.win.pay = r.win.pay[:len(pay)]
	copy(r.win.pay, pay)
}

// windowHit reports whether the group window holds this unit with an
// occurrence anchor a whole number of cycles before abs (same content
// under a static schedule generation — the adopted version is part of
// the key).
func (r *FECReceiver) windowHit(ch int, unit int32, abs int64) bool {
	if r.win.unit != unit || r.win.ch != ch || r.win.ver != r.w.ver {
		return false
	}
	d := abs - r.win.abs
	return d >= 0 && d%int64(r.geo.chs[ch].physLen) == 0
}

// Table receives — and if necessary reconstructs — the index table of
// the frame at cycle position pos. A clean read costs exactly the
// plain WireReceiver's TablePackets packets; any loss continues into
// the parity tail and solves the erasures, and only when that fails
// does the read report failure.
func (r *FECReceiver) Table(pos int) (*dsi.Table, bool) {
	if !r.on() {
		return r.w.Table(pos)
	}
	w := r.w
	u, ui, ch := r.tableUnit(pos)
	n := u.n
	base := w.tu.Now()
	if cached := r.cache.lookup(ch, ui, w.ver, base, r.geo.chs[ch].physLen); cached != nil {
		// The whole unit was recovered at an earlier occurrence: decode
		// from the cache with zero air slots — the radio stays dozing.
		r.cacheHits++
		if r.met != nil {
			r.met.CacheHits.Inc()
		}
		buf := w.tabBuf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, cached[i]...)
		}
		w.tabBuf = buf
		return w.decodeTable(buf, pos)
	}
	pay := r.members(n)
	okm := uint64(0)
	for i := 0; i < n; i++ {
		pkt, good := w.read()
		if good && pkt.Flags&flagIndex != 0 {
			pay[i] = pkt.Payload
			okm |= 1 << uint(i)
		}
	}
	if okm != allMask(n) {
		code := r.cfg.Table
		if !code.Enabled() {
			return nil, false
		}
		tail := r.readTail(u, code)
		syms, ok := r.solve.recoverUnit(code, n, w.x.Cfg.Capacity, pay, okm, tail, allMask(n))
		r.countSolve(ok)
		if !ok {
			return nil, false
		}
		for i := 0; i < n; i++ {
			if okm&(1<<uint(i)) == 0 {
				pay[i] = syms[i][:r.expLen(u, i)]
				r.countRecovered()
			}
		}
		// Only recovered units are cached: a cleanly received unit
		// re-airs every cycle for free, so the error-free cost model
		// stays exactly the plain receiver's.
		r.cache.store(ch, ui, w.ver, base, pay)
	}
	buf := w.tabBuf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, pay[i]...)
	}
	w.tabBuf = buf
	return w.decodeTable(buf, pos)
}

// Header receives the header packet of the o-th object of the frame at
// position pos. A lost header triggers whole-unit recovery: the
// receiver reads the unit's remaining members and its parity tail,
// reconstructs the first packet (and with it the whole object, which
// the group window keeps for the Object call that typically follows),
// and decodes the header from the recovered bytes.
func (r *FECReceiver) Header(pos, o int) (uint64, bool) {
	if !r.on() {
		return r.w.Header(pos, o)
	}
	w := r.w
	base := w.tu.Now()
	u, ui, ch := r.dataUnit(pos, o)
	if r.windowHit(ch, ui, base) && r.win.ok&1 != 0 {
		// The window already holds this occurrence's first packet
		// (reconstructed or received earlier): claim it without
		// receiving — the radio stays dozing.
		h, err := wire.DecodeHeader(r.win.pay[0])
		if err != nil {
			return 0, false
		}
		r.win.abs = base
		return h.HC, true
	}
	pkt, good := w.read()
	if good {
		// Received bytes are final: an unflagged slot (padding) or an
		// undecodable payload is not recoverable loss.
		if pkt.Flags&flagObjectStart == 0 {
			return 0, false
		}
		h, err := wire.DecodeHeader(pkt.Payload)
		if err != nil {
			return 0, false
		}
		pay := r.members(u.n)
		pay[0] = pkt.Payload
		r.setWindow(ch, ui, base, pay, 1)
		return h.HC, true
	}
	code := r.cfg.Object
	if !code.Enabled() {
		return 0, false
	}
	if r.expLen(u, 0) < wire.HeaderSize {
		return 0, false // padding object: there is no header to recover
	}
	n := u.n
	pay := r.members(n)
	okm := uint64(0)
	for i := 1; i < n; i++ {
		p, g := w.read()
		if g {
			pay[i] = p.Payload
			okm |= 1 << uint(i)
		}
	}
	if r.windowHit(ch, ui, base) {
		// Members buffered at an earlier occurrence fill in for fresh
		// losses before the code has to.
		for i := 0; i < n; i++ {
			if okm&(1<<uint(i)) == 0 && r.win.ok&(1<<uint(i)) != 0 {
				pay[i] = r.win.pay[i]
				okm |= 1 << uint(i)
			}
		}
	}
	tail := r.readTail(u, code)
	syms, ok := r.solve.recoverUnit(code, n, w.x.Cfg.Capacity, pay, okm, tail, allMask(n))
	r.countSolve(ok)
	if !ok {
		r.setWindow(ch, ui, base, pay, okm)
		return 0, false
	}
	for i := 0; i < n; i++ {
		if okm&(1<<uint(i)) == 0 {
			pay[i] = syms[i][:r.expLen(u, i)]
			okm |= 1 << uint(i)
			r.countRecovered()
		}
	}
	r.setWindow(ch, ui, base, pay, okm)
	h, err := wire.DecodeHeader(pay[0])
	if err != nil {
		return 0, false
	}
	return h.HC, true
}

// Object receives the remaining packets of the o-th object of the
// frame at position pos. Members the group window already holds for
// this unit — received or reconstructed at an earlier occurrence —
// are claimed without re-reading; fresh losses continue into the
// parity tail. Losses beyond the code distance report failure, and the
// client falls back to the rebroadcast-wait retry.
func (r *FECReceiver) Object(pos, o, skip int) bool {
	if !r.on() {
		return r.w.Object(pos, o, skip)
	}
	w := r.w
	u, ui, ch := r.dataUnit(pos, o)
	n := u.n
	base := w.tu.Now() - int64(skip)
	wanted := allMask(n) &^ allMask(skip)
	if skip == 0 {
		wanted = allMask(n)
	}
	hit := r.windowHit(ch, ui, base)
	if hit && r.win.ok&wanted == wanted {
		return true // every needed member already received and kept
	}
	pay := r.members(n)
	okm := uint64(0)
	if hit {
		for i := 0; i < skip && i < n; i++ {
			if r.win.ok&(1<<uint(i)) != 0 {
				pay[i] = r.win.pay[i]
				okm |= 1 << uint(i)
			}
		}
	}
	lost := uint64(0)
	for i := skip; i < n; i++ {
		pkt, good := w.read()
		switch {
		case good:
			pay[i] = pkt.Payload
			okm |= 1 << uint(i)
		case hit && r.win.ok&(1<<uint(i)) != 0:
			// Lost on air but buffered from an earlier occurrence of
			// this unit: the windowed copy stands in for the loss.
			pay[i] = r.win.pay[i]
			okm |= 1 << uint(i)
		default:
			lost |= 1 << uint(i)
		}
	}
	if lost == 0 {
		return true
	}
	code := r.cfg.Object
	if !code.Enabled() {
		return false
	}
	tail := r.readTail(u, code)
	syms, ok := r.solve.recoverUnit(code, n, w.x.Cfg.Capacity, pay, okm, tail, lost)
	r.countSolve(ok)
	if !ok {
		return false
	}
	for i := 0; i < n; i++ {
		if okm&(1<<uint(i)) == 0 && syms[i] != nil {
			pay[i] = syms[i][:r.expLen(u, i)]
			okm |= 1 << uint(i)
			r.countRecovered()
		}
	}
	r.setWindow(ch, ui, base, pay, okm)
	return true
}

// Poll checks for a shard-directory version bump, exactly like the
// plain WireReceiver — with two coded differences: the FEC descriptor
// crosses the air with the directory (its packets join the reception
// cost and are subject to the same loss), and the re-anchoring
// arithmetic runs over physical channel lengths, whose cycle
// boundaries the transmitter's seams live on.
func (r *FECReceiver) Poll() (*dsi.Layout, bool) {
	if !r.on() {
		return r.w.Poll()
	}
	w := r.w
	now := w.tu.Now()
	dir, over := w.src.DirectoryAt(now)
	if dir == nil || over <= w.ver || w.classic {
		return nil, false
	}
	desc, dver := r.fsrc.FECDescAt(now)
	ok := true
	for i := 0; i < w.dirPackets+r.descPackets; i++ {
		if _, good := w.tu.Read(); !good {
			ok = false
		}
	}
	if !ok {
		return nil, false
	}
	ver, seam, entries, err := wire.DecodeDirV(dir)
	if err != nil || len(entries) != w.lay.Channels() || ver <= w.ver {
		return nil, false
	}
	if ver != w.ver+1 {
		panic(fmt.Sprintf("station: wire receiver at directory version %d cannot follow version %d; re-tune with a current catalog", w.ver, ver))
	}
	cfg, fv, err := wire.DecodeFECDesc(desc)
	if err != nil || fv != ver || dver != over {
		return nil, false // descriptor not (yet) consistent with the directory
	}
	lay, err := dsi.NewLayout(w.x, dsi.MultiConfig{
		Channels:    w.lay.Channels(),
		Scheduler:   dsi.SchedShard,
		SwitchSlots: w.lay.Cfg.SwitchSlots,
		ShardBounds: wire.BoundsFromDir(entries),
	})
	if err != nil {
		return nil, false
	}
	// The descriptor is authoritative: a swap may change the code along
	// with the directory (an adaptive station retuning its rate), so the
	// new geometry is built under the decoded cfg. The recovered-unit
	// cache and the group window — keyed to the old unit geometry — are
	// dropped below either way; adopting the new code just makes that
	// drop load-bearing instead of conservative.
	geo, err := newFECGeom(lay, cfg)
	if err != nil {
		return nil, false
	}
	// Each channel's new cycle is anchored at its first old-cycle
	// boundary at or after the announced seam — old physical lengths,
	// matching the transmitter's seam arithmetic.
	phase := make([]int64, w.lay.Channels())
	for ch := range phase {
		l := int64(r.geo.chs[ch].physLen)
		ph := w.tu.PhaseOf(ch)
		rel := seam - ph
		k := rel / l
		if rel%l != 0 {
			k++
		}
		phase[ch] = ph + k*l
	}
	w.ver = ver
	w.tu.RetunePhased(geo.air, phase)
	w.adoptGeometry(lay)
	if cfg != r.cfg {
		r.cfg = cfg
		if r.met != nil {
			r.met.CodeSwaps.Inc()
		}
	}
	r.geo = geo
	r.win.unit = -1
	r.cache.drop()
	return lay, true
}
