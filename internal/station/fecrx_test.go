package station

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

var _ dsi.Receiver = (*WireReceiver)(nil)

// Codes the tests sweep: a light interleaved XOR and a heavier
// Reed-Solomon configuration.
func xorCode() wire.FECConfig {
	return wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 1},
		Object: wire.FECCode{Groups: 4, Parity: 1},
	}
}

func rsCode() wire.FECConfig {
	return wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 2},
		Object: wire.FECCode{Groups: 2, Parity: 3},
	}
}

// TestFECGeomInvariants checks the physical geometry derivation on the
// single-channel and sharded layouts: units tile the logical cycle,
// the slot maps invert each other, and the parity tail interleaves its
// groups.
func TestFECGeomInvariants(t *testing.T) {
	_, x, shard := wireTestBed(t, 240, 443, quarterBounds)
	for _, tc := range []struct {
		name string
		lay  *dsi.Layout
		cfg  wire.FECConfig
	}{
		{"single-xor", x.SingleLayout(), xorCode()},
		{"single-rs", x.SingleLayout(), rsCode()},
		{"shard-xor", shard, xorCode()},
		{"shard-rs", shard, rsCode()},
	} {
		g, err := newFECGeom(tc.lay, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for ch := range g.chs {
			c := &g.chs[ch]
			logLen := tc.lay.ChanLen(ch)
			wantPhys := 0
			nextLog := 0
			for ui := range c.units() {
				u := c.unit(ui)
				if u.logStart != nextLog {
					t.Fatalf("%s ch%d unit %d starts at logical %d, want %d (units must tile)",
						tc.name, ch, ui, u.logStart, nextLog)
				}
				if u.physStart != wantPhys {
					t.Fatalf("%s ch%d unit %d starts at physical %d, want %d",
						tc.name, ch, ui, u.physStart, wantPhys)
				}
				code := g.code(u.table)
				wantPhys += u.n + code.Tail()
				nextLog += u.n
			}
			if nextLog != logLen {
				t.Fatalf("%s ch%d: units cover %d logical slots, cycle has %d", tc.name, ch, nextLog, logLen)
			}
			if c.physLen != wantPhys || len(g.air.Channels[ch].Slots) != wantPhys {
				t.Fatalf("%s ch%d: physLen %d, program %d, want %d",
					tc.name, ch, c.physLen, len(g.air.Channels[ch].Slots), wantPhys)
			}
			for s := 0; s < logLen; s++ {
				p := c.physSlot(s)
				if _, u := c.covering(p); c.logSlot(p) != s || p-u.physStart >= u.n {
					t.Fatalf("%s ch%d: logical %d -> physical %d -> logical %d (member %d of a %d-member unit)",
						tc.name, ch, s, p, c.logSlot(p), p-u.physStart, u.n)
				}
			}
			for p := 0; p < c.physLen; p++ {
				_, u := c.covering(p)
				if off := p - u.physStart; off < 0 || off >= u.n+g.code(u.table).Tail() {
					t.Fatalf("%s ch%d: physical %d lies outside its unit at %d (%d members, %d parity)",
						tc.name, ch, p, u.physStart, u.n, g.code(u.table).Tail())
				}
			}
		}
	}
}

// TestFECTransmitterParityDecodes reads one coded cycle of every
// channel a unit at a time through ReadRunAt and checks each parity
// packet: it decodes to a header consistent with the geometry — the
// receiver's readTail validation accepts exactly what the transmitter
// emits — and it is, byte for byte, EncodeParity of its group's
// RSParity row over the unit's members as served, zero-padded to
// capacity: the parity arena holds each frame at its own slot.
func TestFECTransmitterParityDecodes(t *testing.T) {
	_, x, lay := wireTestBed(t, 240, 449, quarterBounds)
	cfg := rsCode()
	mt, err := NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := x.Cfg.Capacity
	parity := 0
	geo := mt.air.Load().cur.fec
	for ch := 0; ch < lay.Channels(); ch++ {
		c := &geo.chs[ch]
		for ui := range c.units() {
			u := c.unit(ui)
			code := geo.code(u.table)
			run := make([]Packet, u.n+code.Tail())
			mt.ReadRunAt(run, nil, ch, int64(u.physStart))
			syms := make([][]byte, u.n)
			for i, p := range run[:u.n] {
				if p.Flags&flagParity != 0 {
					t.Fatalf("ch%d slot %d: content slot flagged as parity", ch, u.physStart+i)
				}
				syms[i] = make([]byte, capacity)
				copy(syms[i], p.Payload)
			}
			for off, p := range run[u.n:] {
				slot := u.physStart + u.n + off
				parity++
				if p.Flags&flagParity == 0 {
					t.Fatalf("ch%d slot %d: parity slot lacks the parity flag", ch, slot)
				}
				h, sym, err := wire.DecodeParity(p.Payload, capacity)
				if err != nil {
					t.Fatalf("ch%d slot %d: %v", ch, slot, err)
				}
				wantGrp, wantRow := off%code.Groups, off/code.Groups
				members, k := code.GroupMembers(u.n, wantGrp)
				want := wire.ParityHeader{Unit: uint32(u.logStart), Group: uint8(wantGrp), K: uint8(k),
					R: uint8(code.Parity), Index: uint8(wantRow), Members: members}
				if h != want || len(sym) != capacity {
					t.Fatalf("ch%d slot %d: parity header %+v contradicts geometry (unit %d grp %d row %d)",
						ch, slot, h, u.logStart, wantGrp, wantRow)
				}
				var data [][]byte
				for i := wantGrp; i < u.n; i += code.Groups {
					data = append(data, syms[i])
				}
				if !bytes.Equal(p.Payload, wire.EncodeParity(want, wire.RSParity(data, code.Parity)[wantRow])) {
					t.Fatalf("ch%d slot %d: parity frame is not its group's row %d", ch, slot, wantRow)
				}
			}
		}
	}
	if parity == 0 {
		t.Fatal("coded transmitter emitted no parity")
	}
}

// TestCodedTransmitterRetainsNoParity pins what a coded generation
// keeps for its parity on the massive testbed's coded arm (10 000
// objects at Hilbert order 8, 64-byte packets, 1 KiB objects, one XOR
// row per group of up to four members): nothing but its channel's
// scratch. A coded transmitter that has served a whole cycle, every
// parity tail encoded, retains beyond the uncoded one and its slot
// geometry no more than its scratch: its header, the widest unit's
// member symbols and their slice headers, the widest tail's frames and
// their row headers, with 1 KiB of slack (its FEC descriptor, its entry
// in the geometry cache, size-class rounding) — where a cycle's parity
// frames are 4.1 MB.
func TestCodedTransmitterRetainsNoParity(t *testing.T) {
	bed := massiveCodedBed(t)
	lay, cfg, x := bed.lay, bed.cfg, bed.lay.X
	retained := func(build func() any) int64 {
		var v any
		live := ownHeap(func() { v = build() }).live
		runtime.KeepAlive(v)
		return live
	}
	must := func(v any, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	stride := wire.ParityHeaderSize + x.Cfg.Capacity
	coded := retained(func() any {
		tx := must(NewMultiTransmitterFEC(lay, cfg)).(*MultiTransmitter)
		run := make([]Packet, 64)
		buf := make([]byte, 0, len(run)*stride)
		for s := 0; s < tx.ChanSlots(0); s += len(run) {
			tx.ReadRunAt(run, buf, 0, int64(s))
		}
		return tx
	})
	plain := retained(func() any { return must(NewMultiTransmitter(lay)) })
	geom := retained(func() any { return must(newFECGeom(lay, cfg)) })

	geo, err := newFECGeom(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(geo.chs[0].parityFrames() * stride)
	widest, header := max(x.TablePackets, x.ObjPackets), int(unsafe.Sizeof([]byte(nil)))
	scratch := int64(unsafe.Sizeof(tailScratch{})) +
		int64(widest*(x.Cfg.Capacity+header)) +
		int64(max(cfg.Table.Tail(), cfg.Object.Tail())*stride+max(cfg.Table.Parity, cfg.Object.Parity)*header)
	got := coded - plain - geom
	t.Logf("%d B retained for parity, scratch %d B, a cycle's parity frames %d B; transmitter %d B coded, %d B plain, geometry %d B",
		got, scratch, cycle, coded, plain, geom)
	if cycle == 0 || got > scratch+1024 {
		t.Errorf("a coded transmitter retains %d B for its parity after a cycle, want at most its %d B scratch (+1 KiB); a cycle's parity is %d B", got, scratch, cycle)
	}
}

// TestFECReceiverRate1BitIdentical is the regression the zero config
// must hold: a rate-1 FEC receiver answers every query with exactly
// the results and metrics of the plain WireReceiver — single-channel
// and sharded, window and kNN, loss or no loss, and across a staged
// directory swap.
func TestFECReceiverRate1BitIdentical(t *testing.T) {
	ds, x, lay := wireTestBed(t, 260, 457, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}

	type bed struct {
		name string
		lay  *dsi.Layout
		src  PacketSource
	}
	mt, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	singleLay := x.SingleLayout()
	tx, err := NewMultiTransmitter(singleLay)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Stage(lay1, 50); err != nil {
		t.Fatal(err)
	}
	beds := []bed{
		{"single", singleLay, tx},
		{"shard", lay, mt},
		{"swap", lay, rb},
	}

	rng := rand.New(rand.NewSource(9))
	side := int(ds.Curve.Side())
	for _, b := range beds {
		for trial := 0; trial < 8; trial++ {
			probe := rng.Int63n(int64(b.lay.ProbeCycle()))
			seed := rng.Int63()
			mkLoss := func() *broadcast.LossModel {
				if trial%2 == 0 {
					return nil
				}
				m := broadcast.GilbertForTheta(0.3, 4, seed)
				m.AffectsData = true
				return m
			}
			wrx, err := NewWireReceiver(b.lay, 1, b.src, probe, mkLoss())
			if err != nil {
				t.Fatal(err)
			}
			frx, err := NewFECReceiver(b.lay, 1, b.src, wire.FECConfig{}, probe, mkLoss())
			if err != nil {
				t.Fatal(err)
			}
			wantSess, err := dsi.Open(x, dsi.WithReceiver(wrx))
			if err != nil {
				t.Fatal(err)
			}
			gotSess, err := dsi.Open(x, dsi.WithReceiver(frx))
			if err != nil {
				t.Fatal(err)
			}
			if trial%3 == 2 {
				q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
				k := 1 + rng.Intn(5)
				wantIDs, wantSt := wantSess.KNN(q, k, dsi.Conservative)
				gotIDs, gotSt := gotSess.KNN(q, k, dsi.Conservative)
				if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("%s trial %d: rate-1 kNN (%v,%+v) != wire (%v,%+v)", b.name, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			} else {
				w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 35, ds.Curve.Side())
				wantIDs, wantSt := wantSess.Window(w)
				gotIDs, gotSt := gotSess.Window(w)
				if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("%s trial %d: rate-1 window (%v,%+v) != wire (%v,%+v)", b.name, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			}
		}
	}
}

// runFECWindows answers windows and kNNs through a FEC receiver over
// the source, cross-checking every result against brute force.
func runFECWindows(t *testing.T, ds *dataset.Dataset, x *dsi.Index, lay *dsi.Layout, src PacketSource, cfg wire.FECConfig,
	trials int, seed int64, mkLoss func(rng *rand.Rand) *broadcast.LossModel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := int(ds.Curve.Side())
	recovered := 0
	for trial := 0; trial < trials; trial++ {
		rx, err := NewFECReceiver(lay, 1, src, cfg, rng.Int63n(4096), mkLoss(rng))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 2 {
			q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			k := 1 + rng.Intn(5)
			got, _ := sess.KNN(q, k, dsi.Conservative)
			want, _ := ds.KNNBrute(q, k)
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: coded kNN %v, want %v", trial, got, want)
			}
		} else {
			w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
			got, _ := sess.Window(w)
			want := ds.WindowBrute(w)
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: coded window returned %d objects, want %d", trial, len(got), len(want))
			}
		}
		recovered += rx.Recovered()
	}
	if recovered == 0 {
		t.Fatal("no packet was reconstructed from parity; recovery went unexercised")
	}
}

// TestFECReceiverRecoversSingleChannel runs the coded single-channel
// broadcast under bursty loss on every packet kind: queries must
// answer exactly, recovering in-stream instead of wedging.
func TestFECReceiverRecoversSingleChannel(t *testing.T) {
	ds := dataset.Uniform(220, 7, 461)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []wire.FECConfig{xorCode(), rsCode()} {
		tx, err := NewMultiTransmitterFEC(x.SingleLayout(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		runFECWindows(t, ds, x, x.SingleLayout(), tx, cfg, 8, 463, func(rng *rand.Rand) *broadcast.LossModel {
			m := broadcast.GilbertForTheta(0.3, 3, rng.Int63())
			m.AffectsData = true
			return m
		})
	}
}

// TestFECReceiverRecoversShard runs the coded sharded broadcast under
// bursty loss across all four channels.
func TestFECReceiverRecoversShard(t *testing.T) {
	ds, x, lay := wireTestBed(t, 260, 467, quarterBounds)
	for _, cfg := range []wire.FECConfig{xorCode(), rsCode()} {
		mt, err := NewMultiTransmitterFEC(lay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runFECWindows(t, ds, x, lay, mt, cfg, 8, 479, func(rng *rand.Rand) *broadcast.LossModel {
			m := broadcast.GilbertForTheta(0.35, 3, rng.Int63())
			m.AffectsData = true
			return m
		})
	}
}

// TestFECReceiverBurstBeyondDistance drives bursts much longer than
// the code can correct (burst 8 against single-parity groups of 4):
// recovery must fail cleanly, fall back to the rebroadcast-wait retry,
// and still converge to exact results.
func TestFECReceiverBurstBeyondDistance(t *testing.T) {
	ds := dataset.Uniform(200, 7, 487)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 1},
		Object: wire.FECCode{Groups: 4, Parity: 1},
	}
	tx, err := NewMultiTransmitterFEC(x.SingleLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runFECWindows(t, ds, x, x.SingleLayout(), tx, cfg, 6, 491, func(rng *rand.Rand) *broadcast.LossModel {
		m := broadcast.GilbertForTheta(0.5, 8, rng.Int63())
		m.AffectsData = true
		return m
	})
}

// TestFECReceiverLostParityPackets blanks a rotating subset of parity
// packets on top of bursty content loss: readTail treats them as
// erased rows, recovery degrades where the surviving rows run short,
// and every query still converges exactly.
func TestFECReceiverLostParityPackets(t *testing.T) {
	ds := dataset.Uniform(200, 7, 499)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rsCode()
	tx, err := NewMultiTransmitterFEC(x.SingleLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &faultSource{PacketSource: tx, mutate: func(ch int, abs int64, p Packet) (Packet, bool) {
		if p.Flags&flagParity != 0 && abs%3 == 0 {
			p.Payload = p.Payload[:len(p.Payload)/2] // DecodeParity must reject
			return p, true
		}
		return p, false
	}}
	runFECWindows(t, ds, x, x.SingleLayout(), src, cfg, 6, 503, func(rng *rand.Rand) *broadcast.LossModel {
		m := broadcast.GilbertForTheta(0.3, 3, rng.Int63())
		m.AffectsData = true
		return m
	})
	if src.mutations == 0 {
		t.Fatal("no parity packet was mangled; the fault path went unexercised")
	}
}

// TestFECReceiverResyncAcrossSwap stages a directory swap on a coded
// transmitter while coded queries are in flight under loss: clients
// pick up the version bump (directory and FEC descriptor both cross
// the lossy air), re-anchor in the physical slot domain, and answer
// exactly.
func TestFECReceiverResyncAcrossSwap(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 260, 509, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := xorCode()

	rng := rand.New(rand.NewSource(10))
	side := int(ds.Curve.Side())
	resynced := 0
	for trial := 0; trial < 10; trial++ {
		rb, err := NewMultiTransmitterFEC(lay0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := rng.Int63n(int64(2 * lay0.ProbeCycle()))
		if _, err := rb.Stage(lay1, probe); err != nil {
			t.Fatal(err)
		}
		var loss *broadcast.LossModel
		if trial%2 == 1 {
			loss = broadcast.GilbertForTheta(0.25, 3, rng.Int63())
			loss.AffectsData = true
		}
		rx, err := NewFECReceiver(lay0, 1, rb, cfg, probe, loss)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 50, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: coded window across swap returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() == 2 {
			resynced++
			if sess.Layout().ShardBounds()[1] != skewedBounds(x.NF)[1] {
				t.Fatalf("trial %d: resynced session still on old bounds", trial)
			}
		}
	}
	if resynced == 0 {
		t.Fatal("no trial crossed the seam with a resync; the test exercises nothing")
	}
}

// TestFECReceiverLostDirectoryAcrossSwap corrupts the directory for a
// window after the seam of a coded swap: Poll keeps rejecting it (and
// paying for the attempts), the receiver rides out the transition on
// the old code geometry, and completes exactly once it heals.
func TestFECReceiverLostDirectoryAcrossSwap(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 240, 521, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := xorCode()
	rng := rand.New(rand.NewSource(11))
	side := int(ds.Curve.Side())
	resynced := 0
	for trial := 0; trial < 8; trial++ {
		rb, err := NewMultiTransmitterFEC(lay0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := rng.Int63n(int64(2 * lay0.ProbeCycle()))
		seam, err := rb.Stage(lay1, probe)
		if err != nil {
			t.Fatal(err)
		}
		healAt := seam + int64(2*rb.ChanSlots(0))
		src := &faultSource{PacketSource: rb, mutateDir: func(abs int64, dir []byte) []byte {
			if dir != nil && abs >= seam && abs < healAt {
				bad := append([]byte(nil), dir...)
				bad[0] ^= 0xff
				return bad
			}
			return dir
		}}
		rx, err := NewFECReceiver(lay0, 1, src, cfg, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 55, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: lost-directory coded run returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() == 2 {
			resynced++
		}
	}
	if resynced == 0 {
		t.Fatal("no trial survived into the healed directory; the test exercises nothing")
	}
}

// TestFECReceiverStaleTuneIn tunes a coded client one directory
// version behind a committed swap, landing mid-cycle — often inside a
// unit or its parity tail: the current directory must be received over
// the lossy air and the query then converges exactly on the new
// schedule and its re-derived code geometry.
func TestFECReceiverStaleTuneIn(t *testing.T) {
	ds, x, lay0 := wireTestBed(t, 240, 523, quarterBounds)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := xorCode()
	rb, err := NewMultiTransmitterFEC(lay0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seam, err := rb.Stage(lay1, 100)
	if err != nil {
		t.Fatal(err)
	}
	horizon := seam
	for ch := 0; ch < lay0.Channels(); ch++ {
		if s, ok := rb.SeamOf(ch); ok && s > horizon {
			horizon = s
		}
	}
	if !rb.Commit(horizon) {
		t.Fatal("commit refused past every seam")
	}

	rng := rand.New(rand.NewSource(12))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 8; trial++ {
		probe := horizon + rng.Int63n(int64(2*lay1.ProbeCycle()))
		var loss *broadcast.LossModel
		if trial%2 == 1 {
			loss = broadcast.GilbertForTheta(0.3, 3, rng.Int63())
		}
		rx, err := NewFECReceiver(lay0, 1, rb, cfg, probe, loss)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dsi.Open(x, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 45, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: stale coded tune-in returned %d objects, want %d", trial, len(got), len(want))
		}
		if rx.Version() != 2 {
			t.Fatalf("trial %d: stale receiver still at version %d", trial, rx.Version())
		}
	}
}

// TestNewFECReceiverHandshake rejects a code mismatch between receiver
// catalog and broadcast, a coded receiver over an uncoded station, and
// — through either constructor — an uncoded receiver over a coded one
// (which would decode a physical stream with logical arithmetic).
func TestNewFECReceiverHandshake(t *testing.T) {
	_, _, lay := wireTestBed(t, 240, 541, quarterBounds)
	coded, err := NewMultiTransmitterFEC(lay, xorCode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFECReceiver(lay, 1, coded, rsCode(), 0, nil); err == nil {
		t.Fatal("code mismatch accepted")
	}
	plain, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFECReceiver(lay, 1, plain, xorCode(), 0, nil); err == nil {
		t.Fatal("coded receiver accepted an uncoded broadcast")
	}
	if _, err := NewWireReceiver(lay, 1, coded, 0, nil); err == nil {
		t.Fatal("NewWireReceiver accepted a coded broadcast")
	}
	if _, err := NewFECReceiver(lay, 1, coded, wire.FECConfig{}, 0, nil); err == nil {
		t.Fatal("zero-config receiver accepted a coded broadcast")
	}
	if _, err := NewWireReceiver(lay, 1, plain, 0, nil); err != nil {
		t.Fatalf("uncoded receiver over an uncoded broadcast: %v", err)
	}
}

// TestRecoverUnitPatterns drives the group-interleaved solver directly
// over scattered member and parity losses.
func TestRecoverUnitPatterns(t *testing.T) {
	const n, capacity = 8, 16
	rng := rand.New(rand.NewSource(547))
	payload := make([][]byte, n)
	for i := range payload {
		payload[i] = make([]byte, capacity)
		rng.Read(payload[i])
	}
	mkTail := func(code wire.FECCode) [][]byte {
		tail := make([][]byte, code.Tail())
		for grp := 0; grp < code.Groups; grp++ {
			var data [][]byte
			for i := grp; i < n; i += code.Groups {
				data = append(data, append([]byte(nil), payload[i]...))
			}
			for j, sym := range wire.RSParity(data, code.Parity) {
				tail[j*code.Groups+grp] = sym
			}
		}
		return tail
	}
	for _, tc := range []struct {
		name     string
		code     wire.FECCode
		lostM    uint64 // members erased
		lostTail []int  // tail offsets erased
		need     uint64
		wantOK   bool
	}{
		{"xor-one-per-group", wire.FECCode{Groups: 4, Parity: 1}, 0b0011, nil, 0b0011, true},
		{"xor-two-in-group", wire.FECCode{Groups: 4, Parity: 1}, 0b10001, nil, 0b10001, false},
		{"xor-unneeded-group-beyond-distance", wire.FECCode{Groups: 4, Parity: 1}, 0b110010, nil, 0b10000, true},
		{"rs-heavy-scattered", wire.FECCode{Groups: 2, Parity: 3}, 0b0010101, nil, 0b0010101, true},
		{"rs-lost-parity-row", wire.FECCode{Groups: 2, Parity: 3}, 0b0101, []int{0, 3}, 0b0101, true},
		{"rs-too-few-rows", wire.FECCode{Groups: 2, Parity: 2}, 0b0101, []int{0, 2}, 0b0101, false},
	} {
		tail := mkTail(tc.code)
		for _, off := range tc.lostTail {
			tail[off] = nil
		}
		pay := make([][]byte, n)
		okm := uint64(0)
		for i := 0; i < n; i++ {
			if tc.lostM&(1<<uint(i)) == 0 {
				pay[i] = payload[i]
				okm |= 1 << uint(i)
			}
		}
		syms, ok := recoverUnit(tc.code, n, capacity, pay, okm, tail, tc.need)
		if ok != tc.wantOK {
			t.Fatalf("%s: recoverUnit ok=%v, want %v", tc.name, ok, tc.wantOK)
		}
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			if tc.lostM&(1<<uint(i)) != 0 && tc.need&(1<<uint(i)) != 0 {
				if syms[i] == nil {
					t.Fatalf("%s: needed member %d not recovered", tc.name, i)
				}
				if !equalBytes(syms[i], payload[i]) {
					t.Fatalf("%s: member %d recovered wrong", tc.name, i)
				}
			}
		}
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
