// Loopback regression: the acceptance contract of the network layer.
// Queries answered through a real transport (bare HTTP stream, UDP
// datagrams) over a loss-free loopback link must be bit-identical —
// same result IDs, same slot-level cost stats — to the same queries
// answered through the in-process WireReceiver over the
// same transmitter. The transport may add wall-clock time, never
// broadcast-clock cost.

package netrecv_test

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/netsrv"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

func quarterBounds(nf int) []int { return []int{0, nf / 4, nf / 2, nf} }
func skewedBounds(nf int) []int  { return []int{0, nf / 8, 7 * nf / 8, nf} }

func equalIDs(a, b []int) bool {
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

func xorCode() wire.FECConfig {
	return wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 1},
		Object: wire.FECCode{Groups: 4, Parity: 1},
	}
}

// netTestBed builds the sharded broadcast the suite streams: uniform
// dataset, multi-channel-pointer tables, four channels.
func netTestBed(t testing.TB, n int, seed int64) (*dataset.Dataset, *dsi.Index, *dsi.Layout) {
	t.Helper()
	ds := dataset.Uniform(n, 7, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: quarterBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, x, lay
}

// metaFor writes the catalog document for a netTestBed station.
func metaFor(t testing.TB, ds *dataset.Dataset, n int, seed int64, lay *dsi.Layout, fec wire.FECConfig) wire.StationMeta {
	t.Helper()
	m := wire.StationMeta{
		Dataset:      wire.StationDataset{Kind: "uniform", N: n, Order: 7, Seed: seed, Sum: ds.Checksum()},
		Capacity:     64,
		ReserveMCPtr: true,
		Channels:     lay.Channels(),
		Scheduler:    "shard",
		SwitchSlots:  2,
		ShardBounds:  lay.ShardBounds(),
		Version:      1,
	}
	if fec.Enabled() {
		desc, err := wire.EncodeFECDesc(fec, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.FECDesc = desc
	}
	return m
}

// startBlockStation runs a lossless (Block-mode) station over src and
// returns its base URL. For as long as it runs, a second subscriber
// keeps tuning in, stalling until the station has queued all it will
// for it, and hanging up with those flushes queued: the station
// recycles flush storage, and every test over this station checks the
// surviving subscriber's stream against the source bit for bit.
func startBlockStation(t testing.TB, src station.PacketSource, lay *dsi.Layout, meta wire.StationMeta, tick func(int64)) string {
	t.Helper()
	srv, err := netsrv.New(netsrv.Config{
		Source: src, Layout: lay, Meta: meta, CtrlEvery: 64, Block: true, Tick: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = srv.Run(ctx) }()
	hts := httptest.NewServer(srv.Handler())
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, hts.URL+"/v1/stream", nil)
			if err != nil {
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				_, _ = io.ReadFull(resp.Body, make([]byte, 4096))
				time.Sleep(5 * time.Millisecond)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-hungUp
		hts.CloseClientConnections()
		hts.Close()
	})
	return hts.URL
}

// losslessOpts is the regression-test feed discipline: blocking ring,
// no timeouts, a window deep enough that a whole query's working set
// stays resident.
func losslessOpts() netrecv.Options {
	return netrecv.Options{Lossless: true, RingSlots: 1 << 14}
}

// runBitIdentical drives interleaved window and kNN queries through
// both sessions at the same ascending probe slots and requires equal
// IDs and equal stats on every trial.
func runBitIdentical(t *testing.T, ds *dataset.Dataset, netSess, refSess *dsi.Session, startSlot int64, lay *dsi.Layout, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	side := int(ds.Curve.Side())
	step := int64(12 * lay.ProbeCycle())
	for trial := 0; trial < trials; trial++ {
		probe := startSlot + int64(trial)*step + rng.Int63n(int64(lay.ProbeCycle()))
		netSess.Tune(probe, nil)
		refSess.Tune(probe, nil)
		if trial%3 == 2 {
			q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			k := 1 + rng.Intn(6)
			wantIDs, wantSt := refSess.KNN(q, k, dsi.Conservative)
			gotIDs, gotSt := netSess.KNN(q, k, dsi.Conservative)
			if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
				t.Fatalf("trial %d: net kNN (%v,%+v) != local (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
			}
		} else {
			w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 30, ds.Curve.Side())
			wantIDs, wantSt := refSess.Window(w)
			gotIDs, gotSt := netSess.Window(w)
			if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
				t.Fatalf("trial %d: net window (%v,%+v) != local (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
			}
		}
	}
}

// TestHTTPReceiverBitIdenticalLoopback is the tentpole regression:
// window and kNN suites through an HTTP network receiver over a
// loss-free loopback stream are bit-identical to an in-process
// reference. The shard row's reference is the WireReceiver over the
// same transmitter (the transport adds no broadcast-clock cost); the
// single row's reference is the simulator session itself, so it also
// pins that the station's single-scheduler stream and the client's
// single-layout decoder agree on the table format — an undecodable
// table degrades to a scan and inflates tuning.
func TestHTTPReceiverBitIdenticalLoopback(t *testing.T) {
	const n, seed = 240, 1201
	run := func(t *testing.T, ds *dataset.Dataset, lay *dsi.Layout, meta wire.StationMeta, ref func(*station.MultiTransmitter) *dsi.Session) {
		mt, err := station.NewMultiTransmitter(lay)
		if err != nil {
			t.Fatal(err)
		}
		url := startBlockStation(t, mt, lay, meta, nil)
		cat, err := netrecv.Bootstrap(url, netrecv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cat.X.NF != lay.X.NF || cat.Lay.Channels() != lay.Channels() ||
			!reflect.DeepEqual(cat.Lay.ShardBounds(), lay.ShardBounds()) {
			t.Fatalf("bootstrap rebuilt a different catalog: NF=%d channels=%d bounds=%v",
				cat.X.NF, cat.Lay.Channels(), cat.Lay.ShardBounds())
		}
		rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		netSess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
		if err != nil {
			t.Fatal(err)
		}
		runBitIdentical(t, ds, netSess, ref(mt), rx.LiveSlot()+1, lay, 9)
		if lost := rx.Feed().LostSlots(); lost != 0 {
			t.Fatalf("lossless loopback stream declared %d lost slots", lost)
		}
	}

	t.Run("shard", func(t *testing.T) {
		ds, x, lay := netTestBed(t, n, seed)
		run(t, ds, lay, metaFor(t, ds, n, seed, lay, wire.FECConfig{}), func(mt *station.MultiTransmitter) *dsi.Session {
			ref, err := station.NewWireReceiver(lay, 1, mt, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			refSess, err := dsi.Open(x, dsi.WithReceiver(ref))
			if err != nil {
				t.Fatal(err)
			}
			return refSess
		})
	})

	t.Run("single", func(t *testing.T) {
		ds := dataset.Uniform(n, 7, seed)
		x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
		if err != nil {
			t.Fatal(err)
		}
		meta := wire.StationMeta{
			Dataset:  wire.StationDataset{Kind: "uniform", N: n, Order: 7, Seed: seed, Sum: ds.Checksum()},
			Capacity: 64, Channels: 1, Scheduler: "single", Version: 1,
		}
		run(t, ds, x.SingleLayout(), meta, func(*station.MultiTransmitter) *dsi.Session {
			sim, err := dsi.Open(x)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		})
	})
}

// TestHTTPReceiverFECBitIdentical streams a coded broadcast: the
// network receiver must build the FEC decode path from the in-band
// descriptor and stay bit-identical to the in-process coded receiver.
func TestHTTPReceiverFECBitIdentical(t *testing.T) {
	const n, seed = 220, 1409
	ds, x, lay := netTestBed(t, n, seed)
	cfg := xorCode()
	mt, err := station.NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := startBlockStation(t, mt, lay, metaFor(t, ds, n, seed, lay, cfg), nil)
	cat, err := netrecv.Bootstrap(url, netrecv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cat.FEC.Enabled() {
		t.Fatal("bootstrap lost the FEC code")
	}
	rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	netSess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := station.NewFECReceiver(lay, 1, mt, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := dsi.Open(x, dsi.WithReceiver(ref))
	if err != nil {
		t.Fatal(err)
	}
	runBitIdentical(t, ds, netSess, refSess, rx.LiveSlot()+1, lay, 6)
}

// TestCodedNetReceiversShareOneGeometry: clients that attach to one
// coded station bootstrap one shared catalog layout, and their decoders
// hold one coded geometry between them instead of a copy each.
func TestCodedNetReceiversShareOneGeometry(t *testing.T) {
	const n, seed = 220, 1409
	ds, _, lay := netTestBed(t, n, seed)
	cfg := xorCode()
	mt, err := station.NewMultiTransmitterFEC(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := startBlockStation(t, mt, lay, metaFor(t, ds, n, seed, lay, cfg), nil)
	var geos [][]station.CodedChannel
	for i := 0; i < 2; i++ {
		cat, err := netrecv.Bootstrap(url, netrecv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		geos = append(geos, rx.Receiver.Receiver.(*station.WireReceiver).CodedGeometry())
	}
	if geos[0] == nil {
		t.Fatal("a coded catalog's receiver reports no coded geometry")
	}
	// A CodedChannel refers to its geometry's channel, so two compare
	// equal only when they view one shared geometry.
	if geos[0][0] != geos[1][0] {
		t.Fatal("two receivers of one catalog decode under two geometries")
	}
}

// TestUDPReceiverLoopback answers queries through a real paced UDP
// subscription. Loopback datagrams are not guaranteed delivered, so
// each trial that experienced zero feed losses must be bit-identical
// to the in-process receiver; lossy trials (rare, load-dependent) are
// skipped rather than compared.
func TestUDPReceiverLoopback(t *testing.T) {
	const n, seed = 200, 1501
	ds, x, lay := netTestBed(t, n, seed)
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netsrv.New(netsrv.Config{
		Source: mt, Layout: lay,
		Meta:        metaFor(t, ds, n, seed, lay, wire.FECConfig{}),
		SlotsPerSec: 20000, CtrlEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Run(ctx) }()

	cat, err := netrecv.BuildCatalog(metaFor(t, ds, n, seed, lay, wire.FECConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := netrecv.NewUDPReceiver(addr, -1, cat, netrecv.Options{RingSlots: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	netSess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := station.NewWireReceiver(lay, 1, mt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := dsi.Open(x, dsi.WithReceiver(ref))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	side := int(ds.Curve.Side())
	clean := 0
	for trial := 0; trial < 6; trial++ {
		probe := rx.LiveSlot()
		if probe < 0 {
			t.Fatal("no live slot heard over UDP")
		}
		lostBefore := rx.Feed().LostSlots()
		netSess.Tune(probe, nil)
		refSess.Tune(probe, nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 30, ds.Curve.Side())
		gotIDs, gotSt := netSess.Window(w)
		wantIDs, wantSt := refSess.Window(w)
		if rx.Feed().LostSlots() != lostBefore {
			t.Logf("trial %d: datagram loss on loopback, skipping comparison", trial)
			continue
		}
		if !equalIDs(gotIDs, wantIDs) || gotSt != wantSt {
			t.Fatalf("trial %d: udp window (%v,%+v) != local (%v,%+v)", trial, gotIDs, gotSt, wantIDs, wantSt)
		}
		clean++
	}
	if clean == 0 {
		t.Fatal("every UDP trial lost datagrams on loopback; nothing was verified")
	}
}

// TestUDPReceiverRefusesABadChannel: a channel outside [-1, channels)
// is an error, and the station's port hears nothing — no join that
// would subscribe to a channel nobody asked for.
func TestUDPReceiverRefusesABadChannel(t *testing.T) {
	const n, seed = 200, 1501
	ds, _, lay := netTestBed(t, n, seed)
	cat, err := netrecv.BuildCatalog(metaFor(t, ds, n, seed, lay, wire.FECConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	port, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer port.Close()
	for _, ch := range []int{-2, lay.Channels(), lay.Channels() + 5} {
		if rx, err := netrecv.NewUDPReceiver(port.LocalAddr().String(), ch, cat, netrecv.Options{}); err == nil {
			rx.Close()
			t.Fatalf("channel %d of %d: no error", ch, lay.Channels())
		}
	}
	_ = port.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if k, _, err := port.ReadFrom(make([]byte, 256)); err == nil {
		t.Fatalf("the station's port heard a %d-byte request", k)
	}
}

// TestSeamSwapMidQueryOverNetwork stages a live shard-directory swap
// while a network client is querying: the versioned directory rides
// the in-band control frames, the client adopts version 2 mid-stream
// with zero client changes, and every answer stays exact.
func TestSeamSwapMidQueryOverNetwork(t *testing.T) {
	seamSwapOverNetwork(t, 1601, wire.FECConfig{})
}

// TestCodeTurnedOnAtSeamOverNetwork is the same swap with the station
// turning erasure coding on at the seam: a client that bootstrapped
// from an uncoded catalog must follow the descriptor onto the
// parity-bearing stream and keep answering exactly. (While the uncoded
// decoder was its own type it never returned from the first query
// past the seam.)
func TestCodeTurnedOnAtSeamOverNetwork(t *testing.T) {
	seamSwapOverNetwork(t, 1603, xorCode())
}

// seamSwapOverNetwork runs an uncoded loopback station, bootstraps a
// client, stages a swap to the skewed shard map under code to, and
// queries across the seam.
func seamSwapOverNetwork(t *testing.T, seed int64, to wire.FECConfig) {
	const n = 240
	ds, x, lay0 := netTestBed(t, n, seed)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := station.NewMultiTransmitter(lay0)
	if err != nil {
		t.Fatal(err)
	}
	url := startBlockStation(t, rb, lay0, metaFor(t, ds, n, seed, lay0, wire.FECConfig{}),
		func(abs int64) { rb.Commit(abs) })

	cat, err := netrecv.Bootstrap(url, netrecv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	side := int(ds.Curve.Side())
	query := func() {
		t.Helper()
		sess.Tune(rx.LiveSlot()+1, nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 45, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("window returned %d objects, want %d", len(got), len(want))
		}
	}
	query() // version 1, pre-swap
	if _, err := rb.StageFEC(lay1, to, rx.LiveSlot()+1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24 && rx.DirVersion() != 2; i++ {
		query() // queries cross the seam; polls adopt the bump
	}
	if rx.DirVersion() != 2 {
		t.Fatalf("network client never adopted the swapped directory (still v%d)", rx.DirVersion())
	}
	query() // version 2, post-swap
}

// TestBootstrapPastGlobalSeam bootstraps a client from /v1/meta while a
// staged swap is past its global seam and never committed, so the index
// channel airs version 2 and the meta document must still describe one
// generation. The client tunes in one version stale, follows the bump
// in-band and answers every query exactly. (When the document paired
// the staged version with the committed shard bounds, a query never
// returned.)
func TestBootstrapPastGlobalSeam(t *testing.T) {
	const n, seed = 240, 1901
	ds, x, lay0 := netTestBed(t, n, seed)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := station.NewMultiTransmitter(lay0)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := tx.Stage(lay1, 0)
	if err != nil {
		t.Fatal(err)
	}
	url := startBlockStation(t, tx, lay0, metaFor(t, ds, n, seed, lay0, wire.FECConfig{}), nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cat, err := netrecv.Bootstrap(url, netrecv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cat.Meta.Now >= swap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("station clock still at %d, short of the global seam %d", cat.Meta.Now, swap)
		}
		time.Sleep(time.Millisecond)
	}

	cat, err := netrecv.Bootstrap(url, netrecv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	side := int(ds.Curve.Side())
	for i := 0; i < 8; i++ {
		sess.Tune(rx.LiveSlot()+1, nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 45, ds.Curve.Side())
		got, _ := sess.Window(w)
		if want := ds.WindowBrute(w); !equalIDs(got, want) {
			t.Fatalf("query %d (client at v%d): window returned %v, want %v", i, rx.DirVersion(), got, want)
		}
	}
	if rx.DirVersion() != 2 {
		t.Fatalf("client never adopted the staged directory (still v%d)", rx.DirVersion())
	}
}

// TestStaleTuneInOverNetwork tunes a client whose catalog is one
// directory version behind the live daemon: every payload is initially
// undecodable, the current directory arrives in-band, and queries
// converge on the new schedule with exact results.
func TestStaleTuneInOverNetwork(t *testing.T) {
	const n, seed = 240, 1701
	ds, x, lay0 := netTestBed(t, n, seed)
	lay1, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := station.NewMultiTransmitter(lay0)
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
	// The air is now fully version 2; the client below bootstraps from
	// a stale version-1 document on purpose.
	url := startBlockStation(t, rb, lay0, metaFor(t, ds, n, seed, lay0, wire.FECConfig{}), nil)
	cat, err := netrecv.BuildCatalog(metaFor(t, ds, n, seed, lay0, wire.FECConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := netrecv.NewHTTPReceiver(url, cat, losslessOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 4; trial++ {
		sess.Tune(rx.LiveSlot()+1, nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 45, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: stale tune-in returned %d objects, want %d", trial, len(got), len(want))
		}
	}
	if rx.DirVersion() != 2 {
		t.Fatalf("stale client never converged on the live directory (still v%d)", rx.DirVersion())
	}
}

// TestSeveredStreamReconnects cuts every client connection of a paced
// station mid-cycle: the receiver must reconnect on its own, the gap
// surfaces as ordinary losses, and queries before and after the cut
// answer exactly.
func TestSeveredStreamReconnects(t *testing.T) {
	const n, seed = 200, 1801
	ds, x, lay := netTestBed(t, n, seed)
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netsrv.New(netsrv.Config{
		Source: mt, Layout: lay,
		Meta:        metaFor(t, ds, n, seed, lay, wire.FECConfig{}),
		SlotsPerSec: 20000, CtrlEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Run(ctx) }()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	_ = x

	cat, err := netrecv.Bootstrap(hts.URL, netrecv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := netrecv.NewHTTPReceiver(hts.URL, cat, netrecv.Options{RingSlots: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(rx))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	side := int(ds.Curve.Side())
	query := func(tag string) {
		t.Helper()
		sess.Tune(rx.LiveSlot(), nil)
		w := spatial.ClampedWindow(uint32(rng.Intn(side)), uint32(rng.Intn(side)), 40, ds.Curve.Side())
		got, _ := sess.Window(w)
		want := ds.WindowBrute(w)
		if !equalIDs(got, want) {
			t.Fatalf("%s: window returned %d objects, want %d", tag, len(got), len(want))
		}
	}
	query("pre-cut")
	before := rx.LiveSlot()
	hts.CloseClientConnections()
	deadline := time.Now().Add(10 * time.Second)
	for rx.Reconnects() == 0 || rx.LiveSlot() <= before {
		if time.Now().After(deadline) {
			t.Fatalf("stream did not recover: reconnects=%d live=%d (was %d)",
				rx.Reconnects(), rx.LiveSlot(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	query("post-cut")
	if rx.Reconnects() == 0 {
		t.Fatal("no reconnect was counted")
	}
}

// TestSmallLagSlackOnALossFreeLink reads every packet of a paced
// station's stream through a feed whose LagSlack (64 slots) is smaller
// than the station's flush (100 slots at 20 000 slots/s). The station
// emits in air order, so no frame of a later slot can arrive ahead of
// one the reader still waits for, and a loss-free link loses no read
// that starts while the clock is within LagSlack of its slot. (A flush
// emitted channel by channel runs the global clock a whole flush ahead
// of the channels still to come, and their pending slots are declared
// lost.) A reader slowed down enough to fall further behind — the race
// detector does it — is rightly served losses past the slack; those
// reads prove nothing and are only counted.
func TestSmallLagSlackOnALossFreeLink(t *testing.T) {
	const n, seed = 200, 1951
	ds, _, lay := netTestBed(t, n, seed)
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	meta := metaFor(t, ds, n, seed, lay, wire.FECConfig{})
	srv, err := netsrv.New(netsrv.Config{Source: mt, Layout: lay, Meta: meta, SlotsPerSec: 20000, CtrlEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Run(ctx) }()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	cat, err := netrecv.BuildCatalog(meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	const lagSlack = 64
	opt := netrecv.Options{LagSlack: lagSlack}

	readAll := func(t *testing.T, feed *netrecv.Feed, from int64) {
		t.Helper()
		const slots = 6000 // 0.3 s of air
		inSlack, behind := 0, 0
		for abs := from; abs < from+slots; abs++ {
			for ch := 0; ch < lay.Channels(); ch++ {
				// The lag rule serves abs as lost once the clock is
				// LagSlack past it; a read that starts short of that
				// must get the slot.
				live, lost := feed.Live(), feed.LostSlots()
				got, ver := feed.PacketAt(ch, abs)
				if live-abs >= lagSlack {
					behind++
				} else {
					inSlack++
					if feed.LostSlots() != lost {
						t.Fatalf("channel %d slot %d served as lost on a loss-free link, the clock at %d when the read started", ch, abs, live)
					}
				}
				want, _ := mt.PacketAt(ch, abs)
				if ver != 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("channel %d slot %d: stream differs from the source", ch, abs)
				}
			}
		}
		t.Logf("%d reads started within LagSlack of the clock, %d further behind (%d served as lost)", inSlack, behind, feed.LostSlots())
	}
	t.Run("udp", func(t *testing.T) {
		rx, err := netrecv.NewUDPReceiver(addr, -1, cat, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		readAll(t, rx.Feed(), rx.LiveSlot()+1)
	})
	t.Run("http", func(t *testing.T) {
		rx, err := netrecv.NewHTTPReceiver(hts.URL, cat, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		readAll(t, rx.Feed(), rx.LiveSlot()+1)
	})
}
