// net_flood: the full network stack, back-pressured. An in-process
// Block-mode netsrv station streams an mmap'd wire-cycle image flat out
// over HTTP to lossless netrecv clients; the slot clock advances only as
// fast as the slowest stage of image read -> AppendNetFrame -> netsrv
// flush/publish -> HTTP -> Feed -> WireReceiver -> dsi lets it, so the
// delivered rate is the highest loss-free rate of the whole pipeline.

package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/netsrv"
	"dsi/internal/sched"
	"dsi/internal/station"
	"dsi/internal/wire"
)

var netFlood = &workload{
	name:  "net_flood",
	why:   "back-pressured full stack: CPU-bound and lossless, so answers equal an in-process reference and throughput is a claimable number for every net-path optimisation",
	setup: newNetFlood,
}

const (
	netObjects       = 2000 // both net workloads broadcast this many objects
	netChannels      = 4
	netSwitchSlots   = 2
	netFloodClients  = 2
	netFloodWarmup   = 100 // queries per client before the timed section
	netFloodRing     = 1 << 14
	netFloodCtrlSlot = 256
)

// shardStation builds the dataset, index, balanced four-channel shard
// layout and catalog document net_flood (and the wire, net and storage
// kernels) broadcast.
func shardStation(n int, seed int64) (*dataset.Dataset, *dsi.Index, *dsi.Layout, wire.StationMeta, error) {
	const order = 8
	ds := dataset.Uniform(n, order, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 1, ReserveMCPtr: true})
	if err != nil {
		return nil, nil, nil, wire.StationMeta{}, err
	}
	plan, err := sched.Uniform(x, netChannels-1)
	if err != nil {
		return nil, nil, nil, wire.StationMeta{}, err
	}
	lay, err := plan.Layout(netSwitchSlots)
	if err != nil {
		return nil, nil, nil, wire.StationMeta{}, err
	}
	meta := wire.StationMeta{
		Dataset:  wire.StationDataset{Kind: "uniform", N: n, Order: order, Seed: seed, Sum: ds.Checksum()},
		Capacity: 64, Segments: 1, ReserveMCPtr: true,
		Channels: lay.Channels(), Scheduler: "shard", SwitchSlots: netSwitchSlots,
		ShardBounds: lay.ShardBounds(),
	}
	return ds, x, lay, meta, nil
}

// imageOf writes the transmitter's cycle to an image file and maps it:
// the packet source net_flood's station serves from.
func imageOf(path string, mt *station.MultiTransmitter, meta wire.StationMeta) (*diskstore.ImageSource, error) {
	info, ok := diskstore.InfoFor(mt, meta)
	if !ok {
		return nil, fmt.Errorf("image layer cannot size a %T", mt)
	}
	if err := diskstore.WriteImageFile(path, mt, info); err != nil {
		return nil, err
	}
	return diskstore.OpenImage(path)
}

// blockStation is an in-process lossless station over a packet source.
type blockStation struct {
	srv    *netsrv.Server
	hts    *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}
}

func startBlockStation(src station.PacketSource, lay *dsi.Layout, meta wire.StationMeta) (*blockStation, error) {
	srv, err := netsrv.New(netsrv.Config{
		Source: src, Layout: lay, Meta: meta, SlotsPerSec: 0, CtrlEvery: netFloodCtrlSlot, Block: true,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &blockStation{srv: srv, hts: httptest.NewServer(srv.Handler()), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		_ = srv.Run(ctx) // Run only returns nil, on cancellation
	}()
	return st, nil
}

// waitClock returns once the station's slot clock has kept advancing
// (moving) or stood still (!moving) for hold, or after 5 s. Flat out the
// clock advances every few dozen microseconds, so a sample that finds it
// where the previous one did means the station is blocked.
func (st *blockStation) waitClock(moving bool, hold time.Duration) {
	giveUp := time.Now().Add(5 * time.Second)
	at, since := st.srv.Now(), time.Now()
	for time.Since(since) < hold && time.Now().Before(giveUp) {
		time.Sleep(5 * time.Millisecond)
		now := st.srv.Now()
		if (now != at) != moving {
			since = time.Now() // the other state: start over
		}
		at = now
	}
}

func (st *blockStation) close() {
	st.cancel()
	st.hts.CloseClientConnections()
	st.hts.Close()
	<-st.done
}

type netFloodInst struct {
	cfg  *runConfig
	seed int64
	ds   *dataset.Dataset
	x    *dsi.Index
	lay  *dsi.Layout
	mt   *station.MultiTransmitter
	img  *diskstore.ImageSource
	path string
	st   *blockStation
	rxs  []*netrecv.HTTPReceiver
	cats []*netrecv.Catalog
	// drains keep every attached feed consuming while no section runs.
	// A lossless feed that nobody reads fills its ring within
	// milliseconds of a flat-out stream and then back-pressures the
	// station — which would stall the next receiver's attach, or the
	// other client's warm-up.
	drains []*feedDrain
}

// feedDrain consumes a feed's live edge until stopped.
type feedDrain struct {
	stop chan struct{}
	done chan struct{}
}

// drainFeed frees the whole ring: the feed forgets everything older than
// the newest slot asked for.
func drainFeed(rx *netrecv.HTTPReceiver) { rx.Feed().PacketAt(0, rx.LiveSlot()) }

func startDrain(rx *netrecv.HTTPReceiver) *feedDrain {
	d := &feedDrain{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				drainFeed(rx)
			}
		}
	}()
	return d
}

func (in *netFloodInst) startDrains() {
	for _, rx := range in.rxs[len(in.drains):] {
		in.drains = append(in.drains, startDrain(rx))
	}
}

func (in *netFloodInst) stopDrains() {
	for _, d := range in.drains {
		close(d.stop)
		<-d.done
	}
	in.drains = nil
}

func newNetFlood(cfg *runConfig, seed int64) (instance, error) {
	in := &netFloodInst{cfg: cfg, seed: seed}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()

	var meta wire.StationMeta
	var err error
	in.ds, in.x, in.lay, meta, err = shardStation(cfg.scale(netObjects), seed)
	if err != nil {
		return nil, err
	}
	if in.mt, err = station.NewMultiTransmitter(in.lay); err != nil {
		return nil, err
	}
	in.path = filepath.Join(cfg.tmp, fmt.Sprintf("net_flood_%d.img", seed))
	if in.img, err = imageOf(in.path, in.mt, meta); err != nil {
		return nil, err
	}
	// Layout nil: the daemon serving an image has no in-memory layout.
	if in.st, err = startBlockStation(in.img, nil, in.img.Meta()); err != nil {
		return nil, err
	}
	opt := netrecv.Options{Lossless: true, RingSlots: netFloodRing}
	for i := 0; i < netFloodClients; i++ {
		cat, err := netrecv.Bootstrap(in.st.hts.URL, opt)
		if err != nil {
			return nil, err
		}
		rx, err := netrecv.NewHTTPReceiver(in.st.hts.URL, cat, opt)
		if err != nil {
			return nil, err
		}
		in.cats = append(in.cats, cat)
		in.rxs = append(in.rxs, rx)
		in.startDrains()
	}
	ok = true
	return in, nil
}

func (in *netFloodInst) close() {
	in.stopDrains()
	for _, rx := range in.rxs {
		rx.Close()
	}
	if in.st != nil {
		in.st.close()
	}
	if in.img != nil {
		in.img.Close()
	}
	if in.path != "" {
		os.Remove(in.path)
	}
}

// clients opens one session per receiver. Each query is answered a
// second time by an in-process WireReceiver over the transmitter the
// image was written from, tuned at the same slot: a lossless stream must
// give the same ids and the same cost, bit for bit.
func (in *netFloodInst) clients(traced bool) ([]*client, error) {
	epoch := time.Now()
	clients := make([]*client, len(in.rxs))
	for i, rx := range in.rxs {
		var rec *recorder
		if traced {
			// Some hundred queries per traced section: keep half.
			rec = newRecorder(epoch, 2)
		}
		sess, err := dsi.Open(in.cats[i].X, dsi.WithReceiver(traceReceiver(rx, rec)))
		if err != nil {
			return nil, err
		}
		ref, err := station.NewWireReceiver(in.lay, 1, in.mt, 0, nil)
		if err != nil {
			return nil, err
		}
		refSess, err := dsi.Open(in.x, dsi.WithReceiver(ref))
		if err != nil {
			return nil, err
		}
		var refBuf []int
		clients[i] = &client{
			sess: sess, ds: in.ds, rec: rec,
			stream: newQueryStream(in.seed, i, len(in.rxs), in.ds.Curve.Side(), 0.1, 0.5),
			tune: func(query) (int64, *broadcast.LossModel) {
				return rx.LiveSlot() + 1, nil
			},
			idle: func() {
				drainFeed(rx)
				time.Sleep(time.Millisecond)
			},
			check: func(q query, probe int64, ids []int, st broadcast.Stats) error {
				refSess.Tune(probe, nil)
				var want broadcast.Stats
				if q.knn {
					refBuf, want = refSess.KNNAppend(refBuf[:0], q.p, knnK, dsi.Conservative)
				} else {
					refBuf, want = refSess.WindowAppend(refBuf[:0], q.w)
				}
				if st != want {
					return fmt.Errorf("query %d at slot %d: network stats %+v != in-process reference %+v", q.id, probe, st, want)
				}
				if !slices.Equal(ids, refBuf) {
					return fmt.Errorf("query %d at slot %d: network answer %v != in-process reference %v", q.id, probe, ids, refBuf)
				}
				return nil
			},
		}
	}
	return clients, nil
}

func (in *netFloodInst) measure(d time.Duration, mode sectionMode) (tally, error) {
	clients, err := in.clients(mode == sectionTraced)
	if err != nil {
		return tally{}, err
	}
	in.stopDrains()
	defer in.startDrains()
	// Warm-up: connections, rings and session buffers reach steady state.
	together(clients, func(c *client) { c.runN(in.cfg.scale(netFloodWarmup)) })
	for _, c := range clients {
		c.reset()
	}
	slot0 := in.st.srv.Now()
	t := runClients(clients, d)
	slots := in.st.srv.Now() - slot0
	// The retained heap is read with the pipeline at rest: nobody
	// consumes, so every ring, socket buffer and queue between station and
	// feed fills and the station blocks. Read while it still flows, the
	// reading depends on how full they happen to be, and whatever the
	// station allocates during the collection's mark phase counts as live.
	in.st.waitClock(false, 50*time.Millisecond)
	t.liveHeapMB = liveHeapMB()
	capacity := float64(in.x.Cfg.Capacity)
	t.latBytes *= capacity
	t.tunBytes *= capacity
	t.extra.set("slots_per_s", float64(slots)/t.wall.Seconds(), "1/s")
	var lost int64
	for _, rx := range in.rxs {
		lost += rx.Feed().LostSlots()
	}
	t.extra.set("netrecv.http_lost_slots", float64(lost), "count")
	return t, nil
}

func (in *netFloodInst) layers(dec tally) metrics { return netLayers(dec) }

// netLayers is the receiver-seam reduction of the net workloads: only
// the receiver seam is wrappable there (the Feed is built inside the
// receiver's constructor), so the time inside receiver operations is
// frame wait plus decode.
func netLayers(dec tally) metrics {
	m, a := sessionLayers(dec)
	if a.sampled > 0 {
		m.set("netrecv.rx_span_ms_per_query", float64(a.layerSelf(layerRX))/float64(a.sampled)/1e6, "ms")
	}
	return m
}
