package station

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/wire"
)

// scribbleSource is the most hostile source the buffer contract allows.
// A run's payloads read into buf are the reader's until it reuses any of
// buf's capacity — so every buffer run is served out of storage of the
// wrapper's own, never out of buf (a payload need not alias it) and
// never as the inner source's immutable bytes, and the moment the reader
// hands in a buffer that overlaps one it handed in before, what it was
// given for that one last time is overwritten with 0xA5 before the new
// payloads are served from a second buffer. Whatever a reader kept of a
// buffer read without copying decodes as garbage one run over that
// storage later. Runs without a buffer pass through: those payloads are
// the reader's for good.
//
// Once it watches a receiver it also audits the one thing that receiver
// retains across reads: after every overwrite, each member the group
// window claims to know must still be, byte for byte, what the inner
// source transmits in that slot.
type scribbleSource struct {
	PacketSource
	bufs      []*scribbleBuf // one per distinct reader buffer seen
	scribbled int            // runs of payloads overwritten
	watched   *WireReceiver
	err       error // the first window member found corrupted
}

// scribbleBuf is the wrapper's storage behind one reader buffer — the
// bytes [lo, hi) of the reader's memory — two buffers served in turn, so
// a new run never lands on the old one.
type scribbleBuf struct {
	lo, hi uintptr
	bufs   [2][]byte
	last   int
	live   bool // bufs[last] holds payloads the reader may still hold
}

func (s *scribbleSource) ReadRunAt(dst []Packet, buf []byte, ch int, abs int64) {
	for i := range dst {
		dst[i], _ = s.PacketSource.PacketAt(ch, abs+int64(i))
	}
	if cap(buf) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	hi := lo + uintptr(cap(buf))
	var r *scribbleBuf
	for _, o := range s.bufs {
		if o.lo == lo && o.hi == hi {
			r = o
		}
		if o.lo < hi && lo < o.hi && o.live {
			// The reader reuses storage it was served a run for: that run's
			// payloads are void now.
			for i := range o.bufs[o.last] {
				o.bufs[o.last][i] = 0xA5
			}
			o.live = false
			s.scribbled++
			s.auditWindow()
		}
	}
	if r == nil {
		r = &scribbleBuf{lo: lo, hi: hi}
		s.bufs = append(s.bufs, r)
	}
	r.last ^= 1
	out := r.bufs[r.last][:0]
	for _, p := range dst {
		out = append(out, p.Payload...)
	}
	r.bufs[r.last], r.live = out, true
	for i := range dst {
		n := len(dst[i].Payload)
		dst[i].Payload, out = out[:n:n], out[n:]
	}
}

func (s *scribbleSource) auditWindow() {
	if s.watched == nil || s.err != nil || s.watched.win.unit < 0 {
		return
	}
	w := &s.watched.win
	for i, got := range w.pay {
		if w.ok&(1<<uint(i)) == 0 {
			continue
		}
		// A unit's members are consecutive slots from its anchor.
		if want, _ := s.PacketSource.PacketAt(w.ch, w.abs+int64(i)); !bytes.Equal(got, want.Payload) {
			s.err = fmt.Errorf("group window, channel %d unit at slot %d: member %d begins %.12x, the source transmitted %.12x",
				w.ch, w.abs, i, got, want.Payload)
			return
		}
	}
}

// scribbleQuery is one query of a scribble trial: a window, or a kNN
// when k > 0, under its own loss draw, and the brute-force answer.
type scribbleQuery struct {
	w        spatial.Rect
	q        spatial.Point
	k        int
	lossSeed int64
	want     []int
}

// scribbleAnswer is what one arm made of a query.
type scribbleAnswer struct {
	ids   []int
	stats broadcast.Stats
}

// scribbleArm runs a trial's queries on one session over src, tuned in
// at probe, and returns every query's answer and cost, and the
// receiver. The session is reused and each query tunes in where the last
// one ended, as a client that stays on does: the recovered-unit cache
// carries from query to query while the group window is dropped between
// them.
func scribbleArm(x *dsi.Index, lay *dsi.Layout, src PacketSource, cfg wire.FECConfig, probe int64, theta, burst float64, queries []scribbleQuery) ([]scribbleAnswer, *WireReceiver, error) {
	rx, err := NewFECReceiver(lay, 1, src, cfg, probe, nil)
	if err != nil {
		return nil, nil, err
	}
	if s, ok := src.(*scribbleSource); ok {
		s.watched = rx
	}
	sess, err := dsi.Open(x, dsi.WithReceiver(rx))
	if err != nil {
		return nil, nil, err
	}
	out := make([]scribbleAnswer, len(queries))
	for i, q := range queries {
		loss := broadcast.GilbertForTheta(theta, burst, q.lossSeed)
		loss.AffectsData = true
		sess.Tune(rx.Now(), loss)
		if q.k > 0 {
			out[i].ids, out[i].stats = sess.KNN(q.q, q.k, dsi.Conservative)
		} else {
			out[i].ids, out[i].stats = sess.Window(q.w)
		}
	}
	return out, rx, nil
}

// TestNothingRetainedAliasesTheScratch runs the receiver's recovery
// matrix — header loss, body loss, members claimed from the group window
// a cycle later, table reads served from the recovered-unit cache, bursts
// beyond the code distance, swaps that change the code or turn it on or
// off mid-query — and a 30 %-burst-loss window/kNN sweep on the
// wire_lossy shape, each twice: over the plain source, and over the same
// source behind a scribbleSource. Every answer must equal brute force,
// and every query must cost exactly what it costs over the plain source:
// the same slots read, the same losses solved. A payload retained by
// alias — the group window is the one retainer — is 0xA5 by the time it
// is claimed or handed to the solve; the scribbling source audits the
// window after every overwrite, so the first such member fails the trial
// whether or not a query went on to consume it.
//
// The two arms run concurrently over the one shared source, which is
// what a station serving many sessions does: under -race, a source that
// kept anything of a reader's buffer shows here. Not skipped under
// -short for that reason.
func TestNothingRetainedAliasesTheScratch(t *testing.T) {
	_, x, shard := wireTestBed(t, 260, 653, quarterBounds)
	skewed, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	xSingle, err := dsi.Build(dataset.Uniform(220, 7, 659), dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	single := xSingle.SingleLayout()

	off := wire.FECConfig{}
	xor, rs := xorCode(), rsCode()
	for _, sc := range []struct {
		name         string
		lay          *dsi.Layout
		cfg          wire.FECConfig
		swapTo       *wire.FECConfig // the code of a swap onto the skewed bounds, staged as each trial tunes in
		theta, burst float64
		trials       int
		queries      int
		wantRecovery bool // the code on air can repair what this loss does
	}{
		{"single-xor", single, xor, nil, 0.3, 3, 6, 3, true},
		{"single-rs", single, rs, nil, 0.3, 3, 6, 3, true},
		{"shard-xor", shard, xor, nil, 0.35, 3, 6, 3, true},
		{"shard-rs", shard, rs, nil, 0.35, 3, 6, 3, true},
		{"burst-beyond-distance", single, xor, nil, 0.5, 8, 4, 2, true},
		{"uncoded", shard, off, nil, 0.3, 3, 4, 3, false},
		{"swap-xor-to-rs", shard, xor, &rs, 0.25, 3, 8, 2, true},
		{"swap-off-to-xor", shard, off, &xor, 0.25, 3, 8, 2, false},
		{"swap-xor-to-off", shard, xor, &off, 0.25, 3, 8, 2, false},
		{"wire-lossy-sweep", shard, wireLossyCode, nil, 0.3, 8, 12, 6, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			x, ds := sc.lay.X, sc.lay.X.DS
			var src PacketSource
			if sc.swapTo == nil {
				if src, err = NewMultiTransmitterFEC(sc.lay, sc.cfg); err != nil {
					t.Fatal(err)
				}
			}
			recovered, cacheHits, scribbled, swapped := 0, 0, 0, 0
			for trial := 0; trial < sc.trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*trial + 7)))
				probe := rng.Int63n(int64(2 * sc.lay.ProbeCycle()))
				if sc.swapTo != nil {
					// Never committed, so both arms see the same air: the
					// queries cross the seam and run on past it.
					rb, err := NewMultiTransmitterFEC(sc.lay, sc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rb.StageFEC(skewed, *sc.swapTo, probe); err != nil {
						t.Fatal(err)
					}
					src = rb
				}
				side := int(ds.Curve.Side())
				queries := make([]scribbleQuery, sc.queries)
				for i := range queries {
					q := &queries[i]
					q.lossSeed = rng.Int63()
					if i%3 == 2 {
						q.q = spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
						q.k = 1 + rng.Intn(5)
						q.want, _ = ds.KNNBrute(q.q, q.k)
					} else {
						q.w = spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
						q.want = ds.WindowBrute(q.w)
					}
				}

				scribble := &scribbleSource{PacketSource: src}
				var plain, hostile []scribbleAnswer
				var plainRx, hostileRx *WireReceiver
				var plainErr, hostileErr error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					plain, plainRx, plainErr = scribbleArm(x, sc.lay, src, sc.cfg, probe, sc.theta, sc.burst, queries)
				}()
				go func() {
					defer wg.Done()
					hostile, hostileRx, hostileErr = scribbleArm(x, sc.lay, scribble, sc.cfg, probe, sc.theta, sc.burst, queries)
				}()
				wg.Wait()
				if plainErr != nil || hostileErr != nil {
					t.Fatal(plainErr, hostileErr)
				}
				if scribble.err != nil {
					t.Fatalf("trial %d: a retained payload was overwritten: %v", trial, scribble.err)
				}
				for i, q := range queries {
					if !equalIDs(plain[i].ids, q.want) {
						t.Fatalf("trial %d query %d: plain source answered %v, brute force %v", trial, i, plain[i].ids, q.want)
					}
					if !equalIDs(hostile[i].ids, q.want) {
						t.Fatalf("trial %d query %d: behind the scribbling source the answer is %v, brute force %v — a retained payload was overwritten",
							trial, i, hostile[i].ids, q.want)
					}
					if hostile[i].stats != plain[i].stats {
						t.Fatalf("trial %d query %d: behind the scribbling source the query cost %+v, over the plain source %+v",
							trial, i, hostile[i].stats, plain[i].stats)
					}
				}
				if hostileRx.Recovered() != plainRx.Recovered() || hostileRx.CacheHits() != plainRx.CacheHits() {
					t.Fatalf("trial %d: %d packets recovered and %d cache hits behind the scribbling source, %d and %d over the plain one",
						trial, hostileRx.Recovered(), hostileRx.CacheHits(), plainRx.Recovered(), plainRx.CacheHits())
				}
				recovered += plainRx.Recovered()
				cacheHits += plainRx.CacheHits()
				scribbled += scribble.scribbled
				if hostileRx.Version() == 2 {
					swapped++
				}
			}
			if scribbled == 0 {
				t.Fatal("the scribbling source overwrote nothing; the test exercises nothing")
			}
			if sc.wantRecovery && recovered == 0 {
				t.Fatal("no packet was reconstructed from parity; recovery went unexercised")
			}
			if sc.swapTo != nil && swapped == 0 {
				t.Fatal("no trial followed the swap across its seam; the test exercises nothing")
			}
			t.Logf("%d runs of payloads overwritten, %d packets recovered, %d cache hits", scribbled, recovered, cacheHits)
		})
	}
}

// TestWindowClaimSurvivesTheScratch is the retention hazard with an
// answer at stake: a header read leaves its packet in the group window,
// a table read then goes through the scratch region that packet was read
// into, and a cycle later the same header is claimed from the window
// without receiving. The claim must decode what was on air, at no cost.
func TestWindowClaimSurvivesTheScratch(t *testing.T) {
	x, err := dsi.Build(dataset.Uniform(220, 7, 661), dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	lay := x.SingleLayout()
	tx, err := NewMultiTransmitterFEC(lay, xorCode())
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewFECReceiver(lay, 1, &scribbleSource{PacketSource: tx}, xorCode(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const pos = 3
	_, data := lay.DataPlace(pos)
	_, table := lay.TablePlace(pos + 1)
	rx.DozeUntilPos(data)
	want, ok := rx.Header(pos, 0)
	if !ok {
		t.Fatal("header lost on a loss-free air")
	}
	rx.DozeUntilPos(table)
	if _, ok := rx.Table(pos + 1); !ok {
		t.Fatal("table lost on a loss-free air")
	}
	rx.DozeUntilPos(data)
	before := rx.Stats()
	got, ok := rx.Header(pos, 0)
	if !ok || got != want {
		t.Fatalf("header claimed from the window a cycle later: HC %#x ok=%v, on air %#x", got, ok, want)
	}
	if after := rx.Stats(); after != before {
		t.Fatalf("the claim received packets: %+v, before it %+v", after, before)
	}
}
