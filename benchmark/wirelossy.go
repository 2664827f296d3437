// wire_lossy: the in-process byte path under burst loss. W sessions over
// station.FECReceiver decode a coded four-channel shard broadcast served
// by one station.MultiTransmitter; every query runs under its own
// Gilbert-Elliott loss process.

package main

import (
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/sched"
	"dsi/internal/station"
	"dsi/internal/wire"
)

var wireLossy = &workload{
	name:  "wire_lossy",
	why:   "station receivers, MultiTransmitter.PacketAt and wire decode do most of the work and hilbert under 1 %; set-up carries the encode side of the same wire layer",
	setup: newWireLossy,
}

const (
	wireLossyObjects  = 5000
	wireLossyTheta    = 0.3
	wireLossyBurst    = 8
	wireLossyProfileN = 2000 // windows of the stream the shard plan is profiled on
	wireLossySwitch   = 2
	// wireLossyPrefix is how many of each client's first queries the
	// paper metrics average over: every run of a seed completes them.
	wireLossyPrefix = 1500
)

// wireLossyCode is the workload's erasure code: objects in 4 interleaved
// groups of 2 parity rows, tables in 1 group of 2.
var wireLossyCode = wire.FECConfig{
	Table:  wire.FECCode{Groups: 1, Parity: 2},
	Object: wire.FECCode{Groups: 4, Parity: 2},
}

type wireLossyInst struct {
	cfg   *runConfig
	seed  int64
	ds    *dataset.Dataset
	x     *dsi.Index
	lay   *dsi.Layout
	tx    *station.MultiTransmitter
	cycle float64 // physical slots across all channels: what tune-in phases scale to
}

func newWireLossy(cfg *runConfig, seed int64) (instance, error) {
	in := &wireLossyInst{cfg: cfg, seed: seed}

	in.ds = dataset.Uniform(cfg.scale(wireLossyObjects), 8, seed)
	var err error
	in.x, err = dsi.Build(in.ds, dsi.Config{Capacity: 64, ObjectBytes: 1024, ReserveMCPtr: true})
	if err != nil {
		return nil, err
	}
	// The shard bounds come from the workload's own stream: a profile of
	// its first windows, partitioned over the three data channels.
	prof := sched.NewProfile(in.x)
	curve := in.ds.Curve
	stream := in.stream(0)
	for i := 0; i < cfg.scale(wireLossyProfileN); i++ {
		w := stream.draw().w
		prof.AddRanges(curve.AppendRanges(nil, w.MinX, w.MinY, w.MaxX, w.MaxY), 1)
	}
	plan, err := sched.Partition(prof, 3)
	if err != nil {
		return nil, err
	}
	in.lay, err = plan.Layout(wireLossySwitch)
	if err != nil {
		return nil, err
	}
	in.tx, err = station.NewMultiTransmitterFEC(in.lay, wireLossyCode)
	if err != nil {
		return nil, err
	}
	rx, err := station.NewFECReceiver(in.lay, 1, in.tx, wireLossyCode, 0, nil)
	if err != nil {
		return nil, err
	}
	in.cycle = float64(rx.CycleSlots())
	return in, nil
}

func (in *wireLossyInst) stream(worker int) *queryStream {
	return newQueryStream(in.seed, worker, in.cfg.workers, in.ds.Curve.Side(), 0.1, 0)
}

func (in *wireLossyInst) close() {}

// clients opens the W sessions. fec, when set, receives every
// receiver's coding counters.
func (in *wireLossyInst) clients(traced bool, fec *obs.FECMetrics) ([]*client, error) {
	epoch := time.Now()
	clients := make([]*client, in.cfg.workers)
	for w := range clients {
		var rec *recorder
		if traced {
			rec = newRecorder(epoch, in.cfg.every)
		}
		frx, err := station.NewFECReceiver(in.lay, 1, traceSource(in.tx, rec), wireLossyCode, 0, nil)
		if err != nil {
			return nil, err
		}
		frx.SetObs(fec)
		sess, err := dsi.Open(in.x, dsi.WithReceiver(traceReceiver(frx, rec)))
		if err != nil {
			return nil, err
		}
		clients[w] = &client{
			sess: sess, ds: in.ds, rec: rec, stream: in.stream(w), prefix: wireLossyPrefix,
			tune: func(q query) (int64, *broadcast.LossModel) {
				return int64(q.phase * in.cycle), broadcast.GilbertForTheta(wireLossyTheta, wireLossyBurst, q.loss)
			},
		}
	}
	return clients, nil
}

func (in *wireLossyInst) measure(d time.Duration, mode sectionMode) (tally, error) {
	var fec *obs.FECMetrics
	if mode == sectionTraced {
		fec = obs.NewFECMetrics(obs.NewRegistry())
	}
	clients, err := in.clients(mode == sectionTraced, fec)
	if err != nil {
		return tally{}, err
	}
	t := runClients(clients, d)
	capacity := float64(in.x.Cfg.Capacity)
	t.latBytes *= capacity
	t.tunBytes *= capacity
	if fec != nil {
		// Units that saw a loss either solved (every needed group
		// recovered) or were abandoned to the rebroadcast wait.
		solved, lost := fec.GroupSolves.Value(), fec.SolveFailures.Value()
		if solved+lost > 0 {
			t.extra.set("station.fec_recovered_ratio", float64(solved)/float64(solved+lost), "ratio")
		}
	}
	return t, nil
}

func (in *wireLossyInst) layers(dec tally) metrics {
	m, a := sessionLayers(dec)
	if a.sampled > 0 {
		m.set("station.rx_self_us_per_query", float64(a.layerSelf(layerRX))/float64(a.sampled)/1e3, "us")
	}
	if a.queries > 0 {
		m.set("station.packet_at_per_query", float64(a.counts[spanPacketAt])/float64(a.queries), "count")
	}
	m.merge(dec.extra)
	return m
}
