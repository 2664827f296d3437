// Command dsistation serves a DSI broadcast over real transports: the
// wire byte cycles every receiver decodes stream out as
// position-stamped net frames over bare HTTP streams, UDP unicast
// subscriptions, and UDP multicast groups (one group per broadcast
// channel). The daemon also serves the catalog document (/v1/meta)
// clients bootstrap from, and the obs /metrics and /debug/pprof
// surfaces.
//
// Usage:
//
//	dsistation                                   # uniform dataset, 4-channel shard, HTTP on :8345
//	dsistation -dataset uniform.csv -order 8     # serve a dsigen CSV
//	dsistation -image u10m.img                   # serve an mmap'd wire-cycle image (dsigen -emit-image)
//	dsistation -udp :8346 -mcast 239.1.9.0:8400  # add the datagram transports
//	dsistation -fec 4,1 -fectable 1,1            # erasure-coded broadcast
//	dsistation -swapdemo 200000                  # stage a live directory re-cut periodically
//
// See docs/OPERATIONS.md for the full running guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/netsrv"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

func main() {
	var (
		httpAddr = flag.String("http", ":8345", "HTTP listen address (/v1/meta, /v1/stream, /metrics, /debug/pprof)")
		udpAddr  = flag.String("udp", "", "UDP subscribe address (e.g. :8346; empty = datagram transport off)")
		mcast    = flag.String("mcast", "", "multicast base group; channel c emits on port+c (e.g. 239.1.9.0:8400; requires -udp)")
		rate     = flag.Int("rate", 20000, "broadcast pace in slots/sec (<= 0 streams flat out; never do that on a shared daemon)")
		ctrl     = flag.Int("ctrl", 256, "control-frame cadence in slots (directory + FEC descriptor)")

		imgPath = flag.String("image", "", "wire-cycle image file (dsigen -emit-image); serves the mmap'd byte stream, no in-memory build")
		csvPath = flag.String("dataset", "", "CSV dataset file (dsigen output); empty generates one")
		n       = flag.Int("n", 10000, "number of objects (generated datasets)")
		order   = flag.Uint("order", 8, "Hilbert curve order")
		seed    = flag.Int64("seed", 1, "dataset seed")
		real    = flag.Bool("real", false, "generate the REAL-like clustered dataset")

		capacity = flag.Int("capacity", 64, "packet capacity in bytes")
		segments = flag.Int("segments", 1, "broadcast reorganization factor m (shard layouts require 1)")
		objB     = flag.Int("objbytes", 0, "object payload bytes (0 = index default)")

		channels = flag.Int("channels", 4, "broadcast channels")
		sched    = flag.String("sched", "shard", "channel scheduler: single | split | shard")
		switchC  = flag.Int("switch", 2, "channel-switch cost in slots (multi-channel only)")

		fecObj   = flag.String("fec", "", "object erasure code as groups,parity (e.g. 4,1); empty = uncoded")
		fecTable = flag.String("fectable", "1,1", "index-table erasure code as groups,parity (with -fec)")

		swapEvery = flag.Int64("swapdemo", 0, "re-cut and swap the shard directory every this many slots (shard scheduler only; 0 = off)")
	)
	flag.Parse()

	var (
		src    station.PacketSource
		lay    *dsi.Layout
		meta   wire.StationMeta
		tick   func(int64)
		banner string
		fcfg   wire.FECConfig
	)
	if *imgPath != "" {
		img, err := diskstore.OpenImage(*imgPath)
		if err != nil {
			fatal(err)
		}
		defer img.Close()
		src, meta = img, img.Meta()
		banner = fmt.Sprintf("image %s (%s, %d channels)", *imgPath, meta.Dataset.Kind, img.Channels())
	} else {
		ds, kind, err := loadDataset(*csvPath, *n, *order, *seed, *real)
		if err != nil {
			fatal(err)
		}
		mcptr := *channels > 1
		x, err := dsi.Build(ds, dsi.Config{
			Capacity: *capacity, Segments: *segments, ObjectBytes: *objB, ReserveMCPtr: mcptr,
		})
		if err != nil {
			fatal(err)
		}
		var schedName string
		lay, schedName, err = buildLayout(x, *channels, *sched, *switchC)
		if err != nil {
			fatal(err)
		}
		fcfg, err = parseFEC(*fecObj, *fecTable)
		if err != nil {
			fatal(err)
		}

		meta = wire.StationMeta{
			Dataset: wire.StationDataset{
				Kind: kind, N: len(ds.Objects), Order: *order, Seed: *seed, Sum: ds.Checksum(),
			},
			Capacity: *capacity, Segments: *segments, ObjectBytes: *objB, ReserveMCPtr: mcptr,
			Channels: lay.Channels(), Scheduler: schedName, SwitchSlots: *switchC,
			ShardBounds: lay.ShardBounds(),
		}

		src, tick, err = buildSource(x, lay, schedName, *switchC, fcfg, *swapEvery)
		if err != nil {
			fatal(err)
		}
		banner = fmt.Sprintf("%s over %d-channel %s layout", ds.Name, lay.Channels(), schedName)
	}

	reg := obs.NewRegistry()
	srv, err := netsrv.New(netsrv.Config{
		Source: src, Layout: lay, Meta: meta,
		SlotsPerSec: *rate, CtrlEvery: *ctrl, Registry: reg, Tick: tick,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *udpAddr != "" {
		addr, err := srv.ServeUDP(ctx, *udpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dsistation: udp subscribe on %s\n", addr)
		if *mcast != "" {
			if err := srv.EnableMulticast(*mcast); err != nil {
				fatal(err)
			}
			fmt.Printf("dsistation: multicast base %s (+channel)\n", *mcast)
		}
	} else if *mcast != "" {
		fatal(fmt.Errorf("-mcast requires -udp (the datagram emitter carries both)"))
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dsistation: %s, %d slots/sec\n", banner, *rate)
	if fcfg.Enabled() {
		fmt.Printf("dsistation: erasure-coded, object %v table %v\n", fcfg.Object, fcfg.Table)
	}
	fmt.Printf("dsistation: http on %s\n", ln.Addr())

	go func() { _ = srv.Run(ctx) }()
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		_ = hs.Close()
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed && ctx.Err() == nil {
		fatal(err)
	}
	fmt.Println("dsistation: shut down")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dsistation: %v\n", err)
	os.Exit(1)
}

// loadDataset resolves the broadcast's dataset and its catalog kind.
// The generated kinds must match netrecv's bootstrap regeneration
// exactly, or client checksums will refuse the catalog.
func loadDataset(csvPath string, n int, order uint, seed int64, real bool) (*dataset.Dataset, string, error) {
	if csvPath != "" {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		ds, err := dataset.ReadCSV(f, order)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", csvPath, err)
		}
		return ds, "csv", nil
	}
	if real {
		return dataset.Clustered(dataset.DefaultRealConfig(seed)), "real", nil
	}
	return dataset.Uniform(n, order, seed), "uniform", nil
}

// buildLayout cuts the channel layout. Shard bounds are cut evenly
// across the data channels; -swapdemo re-cuts them live.
func buildLayout(x *dsi.Index, channels int, sched string, switchC int) (*dsi.Layout, string, error) {
	if channels <= 1 || sched == "single" {
		return x.SingleLayout(), "single", nil
	}
	switch sched {
	case "split":
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: channels, Scheduler: dsi.SchedSplit, SwitchSlots: switchC,
		})
		return lay, "split", err
	case "shard":
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: channels, Scheduler: dsi.SchedShard, SwitchSlots: switchC,
			ShardBounds: cutBounds(x.NF, channels, false),
		})
		return lay, "shard", err
	}
	return nil, "", fmt.Errorf("unknown scheduler %q (have single, split, shard)", sched)
}

// cutBounds cuts the frame range into data-channel shards: even thirds
// (quarters, ...) normally, a front-loaded quadratic cut when skewed —
// the alternate the swap demo flips to.
func cutBounds(nf, channels int, skew bool) []int {
	d := channels - 1
	b := make([]int, channels)
	for i := 1; i < d; i++ {
		if skew {
			b[i] = nf * (i*i + i) / (d*d + d)
		} else {
			b[i] = i * nf / d
		}
	}
	b[d] = nf
	return b
}

func parseFEC(obj, table string) (wire.FECConfig, error) {
	var cfg wire.FECConfig
	if obj == "" {
		return cfg, nil
	}
	parse := func(spec string, c *wire.FECCode) error {
		var g, p int
		if _, err := fmt.Sscanf(spec, "%d,%d", &g, &p); err != nil {
			return fmt.Errorf("bad FEC code %q (want groups,parity): %w", spec, err)
		}
		c.Groups, c.Parity = g, p
		return nil
	}
	if err := parse(obj, &cfg.Object); err != nil {
		return cfg, err
	}
	if err := parse(table, &cfg.Table); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// buildSource assembles the transmitter and, for the swap demo, the
// Tick hook that periodically stages a re-cut shard directory on it and
// commits it at the cycle seam, exercising live directory bumps over the
// network.
func buildSource(x *dsi.Index, lay *dsi.Layout, sched string, switchC int, fcfg wire.FECConfig, swapEvery int64) (station.PacketSource, func(int64), error) {
	if swapEvery > 0 && sched != "shard" {
		return nil, nil, fmt.Errorf("-swapdemo needs the shard scheduler (directory swaps re-cut shard bounds)")
	}
	tx, err := station.NewMultiTransmitterFEC(lay, fcfg)
	if err != nil {
		return nil, nil, err
	}
	if swapEvery <= 0 {
		return tx, nil, nil
	}
	nextSwap := swapEvery
	skew := false
	tick := func(abs int64) {
		tx.Commit(abs)
		if abs < nextSwap {
			return
		}
		nextSwap = abs + swapEvery
		skew = !skew
		alt, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: lay.Channels(), Scheduler: dsi.SchedShard,
			SwitchSlots: switchC, ShardBounds: cutBounds(x.NF, lay.Channels(), skew),
		})
		if err != nil {
			return
		}
		if seam, err := tx.Stage(alt, abs+1); err == nil {
			fmt.Printf("dsistation: staged directory v%d at seam %d\n", tx.Version()+1, seam)
		}
	}
	return tx, tick, nil
}
