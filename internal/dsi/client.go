package dsi

import (
	"dsi/internal/broadcast"
	"dsi/internal/ordset"
)

// knowledge is the client-side knowledge base: everything a client has
// learned about the broadcast from received index tables and object
// headers, plus the static catalog (segment split HC values).
//
// The key inference DSI clients rely on (paper sections 3.3-3.4, e.g.
// "the index table shows the next object is O32, ruling out the
// existence of O28 and O31"): within one broadcast segment, frames
// appear in ascending HC order, so two known frames at adjacent
// same-segment positions bound the HC values of everything between them
// — if the positions are adjacent, nothing exists between their HC
// values.
//
// The knowledge base is organized in spans: maximal runs of frames the
// client can apply that inference to, each an ascending-HC frame range
// whose first frame is catalog knowledge. On classic layouts the spans
// are the broadcast segments (the i-th frame of segment j airs at cycle
// position j + m*i). On sharded layouts (SchedShard) the spans are the
// shards: each data channel's frame range is one span, so every span of
// the knowledge base corresponds to exactly one broadcast channel — the
// per-channel knowledge bases the shard-aware client navigates with —
// and the shard split HC values (carried by the layout's shard
// directory) seed the catalog.
//
// All per-frame and per-object state is epoch-stamped and paged: a fact
// is current only when its stamp equals the knowledge base's epoch, and
// the stamps live in fixed-size pages behind one page table per kind.
// An entry no query has written points at a shared, read-only zero page
// (every stamp 0, which no epoch equals), so a read is two loads and no
// branch; only the three write sites — addFrameFact, locate and
// markRetrieved — swap a zero page for a private one. reset bumps the
// epoch and hands the pages the query wrote back to a free list, in
// O(pages touched): a session costs its page tables plus the pages of
// the largest query it has answered, and a warm query allocates none.
//
// Beside the facts the knowledge base keeps the query's pending set
// (pending.go): the units — known frames with objects to fetch, runs of
// unknown frames a target range can still reach — the client may have
// to visit, patched from what each read taught. The invariant every
// fact recorder and chooser maintains: after sync, the pending sets hold
// every unit a fresh walk over everything known would visit (the walk in
// walk_test.go is that definition, executable), and nothing a fresh walk
// would not visit survives being read by a chooser.
type knowledge struct {
	x *Index

	// Span partition. spanStart (frame ids, with a sentinel NF) and
	// splits (each span's first minimum HC value) describe the spans;
	// the i-th frame of span j airs at cycle position
	// posOrigin[j] + stride*i.
	nspan     int
	spanStart []int
	splits    []uint64
	posOrigin []int
	stride    int

	// epoch stamps current facts; entries with any other stamp are
	// unknown. Starts at 1 so zeroed stamps mean "nothing known".
	epoch uint32

	// frames pages the frame stamps: stamp>>epochShift == epoch -> the
	// frame's minimum HC value is known (it is its first object's HC
	// value, held by the object pages). Below the epoch sit the version
	// of the search disk the frame's units were last evaluated under (8
	// bits) and the frame's pending-unit state (3 bits), both
	// pending.go's.
	frames pageTable[framePage]

	// known[j] is the set of within-span indices of known frames in
	// span j. Because frames in a span are HC sorted, the set is
	// simultaneously ordered by position and by HC.
	known []ordset.Set

	// objs pages the per-object state. Objects are identified by their
	// dataset ID (HC rank); object i belongs to frame i/NO. A stamp reads
	// epoch<<1 | retrieved: stamp>>1 == epoch -> location (HC value)
	// known, and the low bit set -> full payload received.
	objs pageTable[objPage]

	// newObjs queues freshly located objects for the kNN candidate set.
	// Its backing array is reused across drains and queries.
	newObjs []int

	// pend answers "which frame next?" for the installed targets.
	pend pending

	// resync is the scratch of rebuildShardSpans (known frame ids in
	// flight between the old and new span partition).
	resync []int
}

// Page geometry: a frame page holds 64 stamps, an object page 16
// (stamp, HC) pairs. A query touches a few dozen of each at N = 10^4.
const (
	framePageBits = 6
	framePageMask = 1<<framePageBits - 1
	objPageBits   = 4
	objPageMask   = 1<<objPageBits - 1
)

type framePage [1 << framePageBits]uint32

type objPage struct {
	ep [1 << objPageBits]uint32
	hc [1 << objPageBits]uint64
}

// The zero pages every untouched page-table entry points at. Nothing
// writes through them: every session of every goroutine shares them.
var (
	zeroFramePage framePage
	zeroObjPage   objPage
)

// pageTable is one kind of paged state: a page pointer per page index,
// at the shared zero page until a write installs a private page, and the
// pages the session owns, which every query reuses.
type pageTable[P any] struct {
	pages []*P
	zero  *P
	// owned[:len(at)] are installed, owned[k] at page index at[k]; the
	// rest are free.
	owned []*P
	at    []int32
}

func newPageTable[P any](n int, zero *P) pageTable[P] {
	pages := make([]*P, n)
	for i := range pages {
		pages[i] = zero
	}
	return pageTable[P]{pages: pages, zero: zero}
}

// write returns page i for writing, installing a free page (or a new
// one) when the entry is still the zero page.
func (t *pageTable[P]) write(i int) *P {
	if p := t.pages[i]; p != t.zero {
		return p
	}
	k := len(t.at)
	if k == len(t.owned) {
		t.owned = append(t.owned, new(P))
	}
	t.at = append(t.at, int32(i))
	t.pages[i] = t.owned[k]
	return t.owned[k]
}

// release points every installed page's entry back at the zero page,
// freeing the page for the next query. Its stale stamps stay.
func (t *pageTable[P]) release() {
	for _, i := range t.at {
		t.pages[i] = t.zero
	}
	t.at = t.at[:0]
}

// clearOwned zeroes every page the session owns; all must be free.
func (t *pageTable[P]) clearOwned() {
	for _, p := range t.owned {
		*p = *new(P)
	}
}

// newKnowledge builds the classic knowledge base, whose spans are the
// broadcast segments.
func newKnowledge(x *Index) *knowledge {
	m := x.Cfg.Segments
	origin := make([]int, m)
	for j := range origin {
		origin[j] = j
	}
	return newSpanKnowledge(x, x.segStart, x.Splits, origin, m)
}

// newShardKnowledge builds the per-channel knowledge base of a sharded
// layout: one span per shard (= per data channel), with the shard split
// HC values as catalog knowledge. Sharded layouts require m = 1, so the
// i-th frame of the shard starting at frame s airs at position s + i.
func newShardKnowledge(x *Index, bounds []int) *knowledge {
	n := len(bounds) - 1
	splits := make([]uint64, n)
	for s := 0; s < n; s++ {
		splits[s] = x.minHC[bounds[s]]
	}
	return newSpanKnowledge(x, bounds, splits, bounds[:n], 1)
}

func newSpanKnowledge(x *Index, spanStart []int, splits []uint64, posOrigin []int, stride int) *knowledge {
	kb := &knowledge{
		x:         x,
		nspan:     len(splits),
		spanStart: spanStart,
		splits:    splits,
		posOrigin: posOrigin,
		stride:    stride,
		epoch:     1,
		frames:    newPageTable((x.NF+framePageMask)>>framePageBits, &zeroFramePage),
		known:     make([]ordset.Set, len(splits)),
		objs:      newPageTable((x.DS.N()+objPageMask)>>objPageBits, &zeroObjPage),
	}
	kb.seedCatalog()
	return kb
}

// reset forgets everything and re-seeds the catalog, in time
// proportional to what was known rather than the dataset size.
func (kb *knowledge) reset() {
	kb.frames.release()
	kb.objs.release()
	kb.epoch++
	if kb.epoch == epochWrap {
		// Stamp wraparound: stale stamps from a full turn of resets ago
		// could alias the new epoch, so clear them once per wrap. Every
		// page is free now.
		kb.frames.clearOwned()
		kb.objs.clearOwned()
		kb.epoch = 1
	}
	for j := range kb.known {
		kb.known[j].Reset()
	}
	kb.newObjs = kb.newObjs[:0]
	kb.pend.targets, kb.pend.isDisk, kb.pend.end = nil, false, 0
	kb.clearPending()
	kb.seedCatalog()
}

// seedCatalog records the public split HC values: the first frame of
// every span is known a priori.
func (kb *knowledge) seedCatalog() {
	for j := 0; j < kb.nspan; j++ {
		kb.addFrameFact(kb.spanStart[j], kb.splits[j])
	}
}

// frameSpan returns the knowledge span containing frame f.
func (kb *knowledge) frameSpan(f int) int {
	for j := kb.nspan - 1; j > 0; j-- {
		if f >= kb.spanStart[j] {
			return j
		}
	}
	return 0
}

// hcSpan returns the knowledge span whose HC range contains v: span j
// spans [splits[j], splits[j+1]). Values below splits[0] (no object
// there) map to span 0.
func (kb *knowledge) hcSpan(v uint64) int {
	for j := kb.nspan - 1; j > 0; j-- {
		if v >= kb.splits[j] {
			return j
		}
	}
	return 0
}

// spanLen returns the number of frames in span j.
func (kb *knowledge) spanLen(j int) int { return kb.spanStart[j+1] - kb.spanStart[j] }

// spanPos returns the cycle position of the i-th frame of span j.
func (kb *knowledge) spanPos(j, i int) int { return kb.posOrigin[j] + kb.stride*i }

// spanHC returns the HC range [lo, hi) covered by span j.
func (kb *knowledge) spanHC(j int) (lo, hi uint64) {
	lo = kb.splits[j]
	if j+1 < kb.nspan {
		hi = kb.splits[j+1]
	} else {
		hi = kb.x.DS.Curve.Size()
	}
	return lo, hi
}

// frameStamp returns frame f's stamp: epoch, disk version and unit bits.
func (kb *knowledge) frameStamp(f int) uint32 {
	return kb.frames.pages[f>>framePageBits][f&framePageMask]
}

// knownStamp returns the stamp of known frame f for writing: a known
// frame's page is private.
func (kb *knowledge) knownStamp(f int) *uint32 {
	return &kb.frames.pages[f>>framePageBits][f&framePageMask]
}

// objStamp returns object id's stamp: epoch<<1 | retrieved.
func (kb *knowledge) objStamp(id int) uint32 {
	return kb.objs.pages[id>>objPageBits].ep[id&objPageMask]
}

// objHC returns object id's HC value, valid when it is located.
func (kb *knowledge) objHC(id int) uint64 {
	return kb.objs.pages[id>>objPageBits].hc[id&objPageMask]
}

// frameHC returns known frame f's minimum HC value: its first object's.
func (kb *knowledge) frameHC(f int) uint64 { return kb.objHC(f * kb.x.NO) }

func (kb *knowledge) frameKnown(f int) bool  { return kb.frameStamp(f)>>epochShift == kb.epoch }
func (kb *knowledge) objLocated(id int) bool { return kb.objStamp(id)>>1 == kb.epoch }
func (kb *knowledge) retrieved(id int) bool  { return kb.objStamp(id) == kb.epoch<<1|1 }

// addFrameFact records that frame f's minimum HC value is hc, locating
// the frame's first object.
func (kb *knowledge) addFrameFact(f int, hc uint64) {
	if kb.frameKnown(f) {
		return
	}
	kb.frames.write(f >> framePageBits)[f&framePageMask] = kb.epoch << epochShift
	j := kb.frameSpan(f)
	i := f - kb.spanStart[j]
	at, _ := kb.known[j].Add(i)

	first, _ := kb.x.FrameObjects(f)
	kb.locate(first, hc)
	kb.learned(j, i, at)
}

// locate records an object's HC value (and thus its exact position on
// the grid: objects live on cells).
func (kb *knowledge) locate(id int, hc uint64) {
	if kb.objLocated(id) {
		return
	}
	p := kb.objs.write(id >> objPageBits)
	p.ep[id&objPageMask] = kb.epoch << 1
	p.hc[id&objPageMask] = hc
	kb.newObjs = append(kb.newObjs, id)
}

// addHeader records that the header of the o-th object of frame f has
// been received, revealing its HC value.
func (kb *knowledge) addHeader(f, o int, hc uint64) {
	first, num := kb.x.FrameObjects(f)
	if o < 0 || o >= num {
		panic("dsi: header index outside frame")
	}
	kb.locate(first+o, hc)
	kb.touch(f)
}

// markRetrieved records a completed object download. The object is
// located: the client fetches only objects whose HC value it knows.
func (kb *knowledge) markRetrieved(id int) {
	kb.objs.write(id >> objPageBits).ep[id&objPageMask] = kb.epoch<<1 | 1
	kb.touch(id / kb.x.NO)
}

// drainNew returns the objects located since the previous call. The
// returned slice is only valid until the next locate: its backing array
// is reused.
func (kb *knowledge) drainNew() []int {
	if len(kb.newObjs) == 0 {
		return nil
	}
	out := kb.newObjs
	kb.newObjs = kb.newObjs[:0]
	return out
}

// dataPhase returns where data channel ch will be in its cycle once the
// receiver could be listening to it: now plus the channel switch (if
// any), relative to the channel's phase anchor (0 on simulator airs, the
// cutover seam on a swapped wire schedule).
func (s *Session) dataPhase(ch int, now int64, cur int, sw int64) int64 {
	if ch != cur {
		now += sw
	}
	l := int64(s.lay.ChanLen(ch))
	phase := (now - s.rx.PhaseOf(ch)) % l
	if phase < 0 {
		phase += l
	}
	return phase
}

// arrivalData returns the slots from now until a visit of position p's
// data can begin: the channel switch (if any) plus the doze to the
// frame's data slot, exactly what gotoData would pay.
func (s *Session) arrivalData(p int, now int64, cur int, sw int64) int64 {
	ch := int(s.lay.dataCh[p])
	wait := int64(s.lay.dataSlot[p]) - s.dataPhase(ch, now, cur, sw)
	if wait < 0 {
		wait += int64(s.lay.ChanLen(ch))
	}
	if ch != cur {
		wait += sw
	}
	return wait
}

// arrivalTables returns the earliest table-read start among the unknown
// frames at cycle positions posLo, posLo+stride, ..., posHi, all of
// whose tables sit in position order on the index channel, plus the
// position achieving it. The index channel carries nothing but tables,
// so its cycle phase is dataPhase's arithmetic on the start channel.
func (s *Session) arrivalTables(posLo, posHi, stride int, now int64, cur int, sw int64) (int64, int) {
	var t int64
	if cur != s.lay.StartCh {
		t = sw
	}
	l := int64(s.lay.ChanLen(s.lay.StartCh))
	phase := s.dataPhase(s.lay.StartCh, now, cur, sw)
	tp := int64(s.x.TablePackets)
	pLo, pHi := int64(posLo), int64(posHi)
	// First span position whose table starts at or after the phase.
	cand := pLo
	if need := (phase + tp - 1) / tp; need > pLo {
		st := int64(stride)
		r := (pLo - need) % st
		if r < 0 {
			r += st
		}
		cand = need + r
	}
	if cand <= pHi {
		return t + cand*tp - phase, int(cand)
	}
	// Every span table already passed this cycle: wait for the wrap.
	return t + pLo*tp + l - phase, int(pLo)
}

// arrivalDelta returns the smallest delta in [1, nf] such that
// nowPos+delta is one of the positions posLo, posLo+stride, ..., posHi
// on a cycle of nf positions: the positional-arithmetic kernel behind
// the earliest-arrival choice of layouts navigated in position order.
func arrivalDelta(nowPos, posLo, posHi, stride, nf int) int {
	// First candidate strictly after nowPos within this cycle.
	cur := nowPos % nf
	if cur < posHi {
		// Smallest position >= cur+1 congruent to posLo mod stride, at
		// least posLo.
		c := cur + 1
		if c < posLo {
			c = posLo
		}
		r := (posLo - c) % stride
		if r < 0 {
			r += stride
		}
		if cand := c + r; cand <= posHi {
			return cand - cur
		}
	}
	// Wrap to the first position of the gap in the next cycle.
	return posLo + nf - cur
}

// Session is a mobile client executing queries over one DSI
// broadcast: the package's one query type. Open assembles it — page
// tables and fixed state, nothing dataset-sized — and it answers any
// number of queries, recycling its knowledge base, scratch buffers and
// receiver between them. A session holds on to the stamp pages of the
// largest query it has answered, so once its free pages cover the
// queries it answers, a warm session allocates nothing (the Append
// variants, at steady state). Sessions are not safe for concurrent use;
// open one per worker.
//
// Each query runs from the session's current tune-in: Tune re-tunes
// for the next query, and a query issued without an intervening Tune
// re-tunes automatically at the previous probe slot and loss model. A
// session over an injected receiver that was never tuned re-tunes at
// the receiver's construction probe slot with error-free reception
// (the Receiver interface cannot recover its loss model; call Tune to
// keep loss across queries). A re-tune costs what the previous query
// learned, not the dataset.
//
// All air access goes through the session's Receiver: the same query
// engine runs over the in-memory simulator (SimReceiver) and over real
// byte streams (station.WireReceiver).
type Session struct {
	x   *Index
	lay *Layout
	rx  Receiver
	kb  *knowledge

	// probeSlot and loss are the tune-in of the current query, reused
	// by the automatic re-tune; fresh is set from a re-tune until the
	// query that consumes it starts.
	probeSlot int64
	loss      *broadcast.LossModel
	fresh     bool

	// lastTable is the most recently received intact index table
	// (pointing at the receiver's scratch, which a failed read leaves
	// intact), used by the aggressive kNN hop rule. Nil until a table
	// is received.
	lastTable *Table

	// posHopOnly disables the arrival-time pricing of aggressive kNN
	// hops on multi-data-channel layouts, falling back to the purely
	// positional closest-frame rule (tests compare the two).
	posHopOnly bool

	// trace, when non-nil, receives an Event for every client step.
	trace func(Event)

	// onHop, when non-nil, observes every navigation choice (tests hold
	// the pending set against a fresh walk with it).
	onHop func(p, next int, ok bool)

	// pendingLay, when non-nil, is a scheduled shard-directory version
	// bump: at clock pendingAt the broadcast swaps to pendingLay and the
	// client re-syncs mid-query (see ScheduleResync).
	pendingLay *Layout
	pendingAt  int64

	// scr holds per-query scratch reused across queries (see
	// queries.go); its buffers grow to a steady state after which warm
	// queries allocate nothing dataset-sized.
	scr scratch
}

// Layout returns the channel layout the session currently runs over
// (it advances when a directory swap re-seeds the client).
func (s *Session) Layout() *Layout { return s.lay }

// gotoTable moves the receiver to the start of the index table of the
// frame at position p, switching channels when the layout placed the
// table elsewhere.
func (s *Session) gotoTable(p int) {
	s.rx.Tune(int(s.lay.tableCh[p]))
	s.rx.DozeUntilPos(int(s.lay.tableSlot[p]))
}

// gotoData moves the receiver to the (o*ObjPackets + skip)-th object
// packet of the frame at position p, switching channels as needed.
func (s *Session) gotoData(p, o, skip int) {
	ch := int(s.lay.dataCh[p])
	s.rx.Tune(ch)
	s.rx.DozeUntilPos((int(s.lay.dataSlot[p]) + o*s.x.ObjPackets + skip) % s.lay.ChanLen(ch))
}

// gotoFrameEntry moves the receiver to where a tableless visit of the
// frame at position p begins: the frame start on its channel. Layouts
// with a dedicated index channel go straight to the frame's data
// channel — data is all it carries for this frame.
func (s *Session) gotoFrameEntry(p int) {
	if s.lay.splitData() {
		s.gotoData(p, 0, 0)
		return
	}
	s.gotoTable(p)
}

// Tune re-tunes the session at the given absolute slot with the given
// loss model for the next query, discarding everything the previous
// query learned and any pending ScheduleResync: the reused session
// behaves exactly like a freshly opened one (identical results and
// identical cost metrics) at a fraction of the setup cost. A nil model
// means error-free channels; broadcast.PerChannel gives each channel
// its own.
func (s *Session) Tune(probeSlot int64, loss *broadcast.LossModel) {
	s.probeSlot, s.loss = probeSlot, loss
	s.rx.Reset(probeSlot, loss)
	s.kb.reset()
	s.lastTable = nil
	s.pendingLay = nil
	s.fresh = true
}

// prepare readies the session for the next query, re-tuning at the
// previous probe parameters when no Tune intervened.
func (s *Session) prepare() {
	if !s.fresh {
		s.Tune(s.probeSlot, s.loss)
	}
	s.fresh = false
}

// Stats returns the cost metrics of the current query so far.
func (s *Session) Stats() broadcast.Stats { return s.rx.Stats() }

// probe performs the initial probe: receive one intact packet on the
// start channel to synchronize with the broadcast, then doze to the
// next index-table start on that channel. Returns the cycle position of
// that table's frame.
func (s *Session) probe() int {
	for {
		_, ok := s.rx.Next()
		s.emit(Event{Op: OpProbe, OK: ok})
		if ok {
			break
		}
	}
	p := s.lay.probePos(s.rx.Pos())
	s.rx.DozeUntilPos(int(s.lay.tableSlot[p]))
	return p
}

// readTable receives the index table of the frame at position p (the
// receiver must be at the frame's first slot). It returns false when
// any table packet was corrupted — or, on a byte-level receiver, when
// the payload did not decode — in which case no knowledge is gained
// but the tuning cost is still paid.
func (s *Session) readTable(p int) bool {
	t, ok := s.rx.Table(p)
	s.emit(Event{Op: OpTableRead, Pos: p, Frame: s.x.PosToFrame(p), Arg: s.x.TablePackets, OK: ok})
	if !ok {
		return false
	}
	s.lastTable = t
	s.kb.addFrameFact(s.x.PosToFrame(p), t.OwnHC)
	for _, e := range t.Entries {
		s.kb.addFrameFact(s.x.PosToFrame(e.TargetPos), e.MinHC)
	}
	return true
}

// wantTable reports whether visiting the frame at position p should
// read its index table: yes when the frame's own minimum HC is unknown
// or the next same-segment frame (needed to bound this frame's content)
// is unknown. Pure data re-fetches skip the table.
//
// On an index-split layout the table lives on another channel, so a
// visit to a known frame never crosses over for the neighbour's bound:
// the frame resolves from its own object headers instead, and unknown
// frames are handled wholesale by the index sweep.
func (s *Session) wantTable(p int) bool {
	f := s.x.PosToFrame(p)
	if !s.kb.frameKnown(f) {
		return true
	}
	if s.lay.splitData() {
		return false
	}
	j := s.x.FrameSegment(f)
	if f+1 < s.x.segStart[j+1] {
		return !s.kb.frameKnown(f + 1)
	}
	return false
}

// visit moves the client to the frame at position p, reads its index
// table when useful, and retrieves the frame's objects selected by the
// installed targets. update, when non-nil, runs after the table is
// absorbed, so a kNN client shrinks its search space before deciding
// what to download. On a multi-channel layout the visit follows the
// layout's (channel, slot) placements: table on the index-bearing
// channel, objects on the frame's data channel.
//
// When the table is corrupted (or skipped) and the frame's minimum HC is
// unknown, the client falls back to reading the first object's header
// packet — DSI's loss resilience: the broadcast content itself reveals
// the frame's HC range, so navigation resumes at the very next frame.
func (s *Session) visit(p int, update func()) {
	f := s.x.PosToFrame(p)
	headerConsumed := -1
	if s.wantTable(p) {
		s.gotoTable(p)
		ok := s.readTable(p)
		if s.lay.splitData() {
			// An index-split table visit ends with the table: the
			// frame's data lives on another channel, and the timed
			// chooser will schedule its retrieval at the slot it
			// actually arrives instead of crossing channels here and
			// stalling until it comes around.
			return
		}
		if !ok && !s.kb.frameKnown(f) {
			// Header fallback: one data packet reveals the first object's
			// HC value (every object's payload starts with its coordinate).
			// Index-split layouts skip it — their index channel rebroadcasts
			// the lost table much sooner than the data channel reaches the
			// frame's first header.
			first, _ := s.x.FrameObjects(f)
			s.gotoData(p, 0, 0)
			hc, okHdr := s.rx.Header(p, 0)
			s.emit(Event{Op: OpHeaderRead, Pos: p, Frame: f, Arg: first, OK: okHdr})
			if okHdr {
				s.kb.addFrameFact(f, hc)
				headerConsumed = 0
			}
		}
	} else {
		s.gotoFrameEntry(p)
	}
	if update != nil {
		update()
	}
	s.fetchData(p, headerConsumed)
}

// fetchData retrieves from the frame at position p every object whose
// HC value is a target and is not yet retrieved. headerConsumed
// is the index of the object whose header packet was already received
// during the table fallback (-1 for none). Corrupted objects stay
// unretrieved; a later cycle retries them.
func (s *Session) fetchData(p int, headerConsumed int) {
	f := s.x.PosToFrame(p)
	if !s.kb.frameKnown(f) {
		return // nothing is known about this frame; nothing to fetch safely
	}
	first, num := s.x.FrameObjects(f)
	tg := &s.kb.pend

	pages, loc := s.kb.objs.pages, s.kb.epoch<<1
	var prev uint64 // ascending watermark of located HC values; the first object is located
	for t := 0; t < num; t++ {
		id := first + t
		pg := pages[id>>objPageBits]
		if st := pg.ep[id&objPageMask]; st|1 == loc|1 {
			prev = pg.hc[id&objPageMask]
			if st == loc && tg.contains(prev) {
				skip := 0
				if t == headerConsumed {
					skip = 1
				}
				s.readObject(p, t, id, skip)
			}
			continue
		}
		// Unlocated: objects from here on have HC above prev; stop
		// once nothing in range can remain.
		if prev+1 >= tg.end {
			return
		}
		// Read the header packet to learn this object's HC value.
		s.gotoData(p, t, 0)
		hc, ok := s.rx.Header(p, t)
		s.emit(Event{Op: OpHeaderRead, Pos: p, Frame: f, Arg: id, OK: ok})
		if !ok {
			continue // lost header: a later cycle rescans this object
		}
		s.kb.addHeader(f, t, hc)
		prev = hc
		if tg.contains(hc) {
			s.readObject(p, t, id, 1)
		}
	}
}

// readObject receives object id, the o-th object of the frame at
// position p, skipping the first skip packets (already received as a
// header). The object counts as retrieved only if every packet arrives
// intact.
func (s *Session) readObject(p, o, id, skip int) {
	s.gotoData(p, o, skip)
	ok := s.rx.Object(p, o, skip)
	s.emit(Event{Op: OpObjectRead, Pos: p, Frame: s.x.PosToFrame(p), Arg: id, OK: ok})
	if ok {
		s.kb.markRetrieved(id)
	}
}

// retrieveAll is the generic query engine: it visits frames until every
// object with an HC value in the installed target set has been retrieved
// with certainty. update, if non-nil, runs after every table read and
// may shrink the target set as knowledge accumulates (kNN); window,
// point and EEF targets are fixed. hook, if non-nil, may redirect the
// next visit (the aggressive kNN hop rule); it returns a cycle position
// and true to override the default soonest-unresolved-frame choice.
func (s *Session) retrieveAll(startPos int, update func(), hook func(p int) (int, bool)) {
	p := startPos
	for {
		// A pending shard-directory version bump is detected between
		// navigation steps (the version rides the index channel the
		// client mines anyway); re-syncing rebuilds the pending sets
		// against the new spans.
		s.maybeResync()
		s.visit(p, update)
		// Absorb what the visit located (kNN shrinks its targets as
		// candidates accumulate) before choosing where to go.
		if update != nil {
			update()
		}
		next, ok := s.nextVisit(p, s.lay.splitData())
		if !ok {
			return
		}
		if hook != nil {
			if override, use := hook(p); use {
				next = override
			}
		}
		p = next
	}
}

// nextVisit chooses the next frame to visit from position p, reading
// the pending sets. Nothing pending doubles as the termination test:
// the query is done exactly when no unresolved frame remains.
// Index-split layouts choose by actual arrival time across channels
// (timed); on one channel, position order is time order, and the
// positional chooser is kept bit-identical to the classic engine.
func (s *Session) nextVisit(p int, timed bool) (next int, ok bool) {
	if timed {
		next, ok = s.nextPendingTimed()
	} else {
		next, ok = s.kb.nextPending(p)
	}
	if s.onHop != nil {
		s.onHop(p, next, ok)
	}
	return next, ok
}
