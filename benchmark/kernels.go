// Per-layer kernels: direct timed calls into the layers' public
// functions, at fixed sizes and fixed operation counts, on inputs built
// from the run's seed. They read the same whichever workload the traced
// run was asked for; what differs per workload is the span metrics.
//
// Every kernel is sized to about a tenth of a second on the reference
// box, the storage and network ones to half a second: the whole family
// has to fit a traced run next to the workload's own sections.

package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/sched"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// perOp times fn, which performs ops operations, five times and returns
// the median nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	var ns []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(ns)
}

// onceMS times fn three times and returns the median milliseconds.
func onceMS(fn func()) float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}

// kernelSink keeps results alive so the compiler cannot drop the calls.
var kernelSink int

// runKernels measures every kernel. A kernel that cannot run (a set-up
// error) leaves its metrics at 0 and reports on stderr; kernels measure,
// the workloads' own gates judge correctness.
func runKernels(cfg *runConfig) metrics {
	m := metrics{}
	for _, k := range []struct {
		name string
		fn   func(*runConfig, metrics) error
	}{
		{"hilbert+dataset+dsi", kernelNavigation},
		{"wire", kernelWire},
		{"station+sched+obs", kernelStation},
		{"netsrv+netrecv", kernelNet},
		{"diskstore", kernelDiskstore},
		{"bench", kernelBench},
	} {
		if err := guard(func() error { return k.fn(cfg, m) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: kernel %s: %v\n", k.name, err)
		}
	}
	return m
}

// guard turns a kernel's panic (a layer rejecting its own output) into
// an error, so the traced run still reports the other kernels.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// kernelNavigation: dataset generation, the Hilbert curve, index and
// layout construction, session open, and the allocation count of a warm
// query — the layers under the replay workloads (N=10000, order 8).
func kernelNavigation(cfg *runConfig, m metrics) error {
	const order = 8
	n := cfg.scale(10000)
	var ds *dataset.Dataset
	m.set("dataset.uniform_ms", onceMS(func() { ds = dataset.Uniform(n, order, cfg.seed) }), "ms")
	curve := ds.Curve
	side := curve.Side()

	// Inputs from the workload's own query stream: kNN centres with the
	// kth-neighbour distance of each, and 0.1-side windows.
	stream := newQueryStream(cfg.seed, 0, 1, side, 0.1, 0.5)
	type disk struct{ x, y, r float64 }
	var disks []disk
	var rects []spatial.Rect
	var points []spatial.Point
	for len(disks) < 3*64 {
		q := stream.draw()
		if !q.knn {
			rects = append(rects, q.w)
			continue
		}
		points = append(points, q.p)
		kth := ds.KthDist(q.p, knnK)
		// The client's search disk shrinks as candidates arrive: the
		// decomposition runs at several multiples of the final radius.
		for _, mult := range []float64{4, 2, 1} {
			disks = append(disks, disk{float64(q.p.X), float64(q.p.Y), kth * mult})
		}
	}
	var dst []hilbert.Range
	var ranges int
	ns := perOp(len(disks), func() {
		ranges = 0
		for _, d := range disks {
			dst = curve.AppendRangesDisk(dst[:0], d.x, d.y, d.r)
			ranges += len(dst)
		}
	})
	m.set("hilbert.ranges_disk_us", ns/1e3, "us")
	m.set("hilbert.ranges_disk_len", float64(ranges)/float64(len(disks)), "count")
	ns = perOp(len(rects), func() {
		for _, w := range rects {
			dst = curve.AppendRanges(dst[:0], w.MinX, w.MinY, w.MaxX, w.MaxY)
		}
	})
	m.set("hilbert.ranges_rect_us", ns/1e3, "us")
	ns = perOp(len(ds.Objects), func() {
		var acc uint64
		for _, o := range ds.Objects {
			acc += curve.Encode(o.P.X, o.P.Y)
		}
		kernelSink += int(acc)
	})
	m.set("hilbert.encode_ns", ns, "ns")

	var x *dsi.Index
	var err error
	m.set("dsi.build_ms", onceMS(func() {
		x, err = dsi.Build(ds, dsi.Config{Capacity: 64, ObjectBytes: 1024, ReserveMCPtr: true})
	}), "ms")
	if err != nil {
		return err
	}
	plan, err := sched.Uniform(x, netChannels-1)
	if err != nil {
		return err
	}
	m.set("dsi.layout_ms", onceMS(func() { _, err = plan.Layout(netSwitchSlots) }), "ms")
	if err != nil {
		return err
	}
	var sess *dsi.Session
	ns = perOp(10, func() {
		for i := 0; i < 10; i++ {
			if sess, err = dsi.Open(x); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("dsi.session_open_us", ns/1e3, "us")

	// Mallocs per warm query. Nothing else runs in the process here: the
	// workload instance is closed before the kernels start.
	cycle := float64(x.SingleLayout().ProbeCycle())
	var buf []int
	knn := func(i int) {
		sess.Tune(int64(float64(i%97)/97*cycle), nil)
		buf, _ = sess.KNNAppend(buf[:0], points[i%len(points)], knnK, dsi.Conservative)
	}
	window := func(i int) {
		sess.Tune(int64(float64(i%97)/97*cycle), nil)
		buf, _ = sess.WindowAppend(buf[:0], rects[i%len(rects)])
	}
	for name, fn := range map[string]func(int){"dsi.knn_allocs": knn, "dsi.window_allocs": window} {
		const warm, counted = 64, 128
		for i := 0; i < warm; i++ {
			fn(i)
		}
		before := mallocs()
		for i := 0; i < counted; i++ {
			fn(i)
		}
		m.set(name, float64(mallocs()-before)/counted, "count")
	}
	return nil
}

// kernelWire: the codecs of the wire layer on a shard layout's real
// tables and headers, the GF(256) parity kernels at two code rates
// (K/(K+R) = 0.8 and 0.667), and the net-frame envelope.
func kernelWire(cfg *runConfig, m metrics) error {
	_, x, lay, _, err := shardStation(cfg.scale(netObjects), cfg.seed)
	if err != nil {
		return err
	}
	type table struct {
		own     uint64
		entries []wire.MCEntry
		enc     []byte
	}
	tables := make([]table, x.NF)
	for pos := range tables {
		own, entries, err := wire.TableMC(lay, pos)
		if err != nil {
			return err
		}
		tables[pos] = table{own, entries, wire.EncodeTableMC(own, entries)}
	}
	m.set("wire.table_mc_encode_ns", perOp(len(tables), func() {
		for _, t := range tables {
			kernelSink += len(wire.EncodeTableMC(t.own, t.entries))
		}
	}), "ns")
	framesOn := make([]int, lay.Channels())
	for ch := range framesOn {
		framesOn[ch] = lay.FramesOn(ch)
	}
	m.set("wire.table_mc_decode_ns", perOp(len(tables), func() {
		for _, t := range tables {
			_, entries, err := wire.DecodeTableMC(t.enc, framesOn)
			if err != nil {
				panic(err) // the layout's own tables must decode
			}
			kernelSink += len(entries)
		}
	}), "ns")

	headers := make([][]byte, len(x.DS.Objects))
	for i, o := range x.DS.Objects {
		headers[i] = wire.EncodeHeader(wire.ObjectHeader{X: o.P.X, Y: o.P.Y, HC: o.HC})
	}
	m.set("wire.header_decode_ns", perOp(len(headers), func() {
		for _, h := range headers {
			oh, err := wire.DecodeHeader(h)
			if err != nil {
				panic(err)
			}
			kernelSink += int(oh.X)
		}
	}), "ns")

	capacity := x.Cfg.Capacity
	symbol := make([]byte, capacity)
	for i := range symbol {
		symbol[i] = byte(i * 7)
	}
	parity := wire.EncodeParity(wire.ParityHeader{Unit: 17, Group: 1, K: 4, R: 2, Index: 1, Members: 0x2222}, symbol)
	m.set("wire.parity_decode_ns", perOp(4096, func() {
		for i := 0; i < 4096; i++ {
			_, sym, err := wire.DecodeParity(parity, capacity)
			if err != nil {
				panic(err)
			}
			kernelSink += len(sym)
		}
	}), "ns")

	m.set("wire.dirv_codec_ns", perOp(1024, func() {
		for i := 0; i < 1024; i++ {
			buf, err := wire.EncodeDirV(lay, 1, 0)
			if err != nil {
				panic(err)
			}
			_, _, dir, err := wire.DecodeDirV(buf)
			if err != nil {
				panic(err)
			}
			kernelSink += len(dir)
		}
	}), "ns")

	for _, code := range []struct{ k, r int }{{4, 1}, {16, 8}} {
		data := make([][]byte, code.k)
		for i := range data {
			data[i] = make([]byte, capacity)
			for j := range data[i] {
				data[i][j] = byte(i*31 + j*7 + 1)
			}
		}
		const groups = 512
		bytesPer := float64(code.k * capacity)
		ns := perOp(groups, func() {
			for g := 0; g < groups; g++ {
				kernelSink += len(wire.RSParity(data, code.r))
			}
		})
		m.set(fmt.Sprintf("wire.rs_parity_k%dr%d_mb_per_s", code.k, code.r), bytesPer/ns*1e3, "MB/s")

		// Recovery at the code's distance: r data symbols erased, every
		// parity row needed.
		par := wire.RSParity(data, code.r)
		work := make([][]byte, code.k)
		ns = perOp(groups, func() {
			for g := 0; g < groups; g++ {
				copy(work, data)
				for e := 0; e < code.r; e++ {
					work[(g+e*3)%code.k] = nil
				}
				if !wire.RSRecover(work, par) {
					panic("wire: RSRecover failed at the code distance")
				}
			}
		})
		m.set(fmt.Sprintf("wire.rs_recover_k%dr%d_mb_per_s", code.k, code.r), bytesPer/ns*1e3, "MB/s")
	}

	frame := wire.NetFrame{Kind: wire.NetData, Ch: 2, Slot: 1234, Ver: 1, Abs: 1 << 33, Payload: symbol}
	var buf []byte
	m.set("wire.netframe_append_ns", perOp(8192, func() {
		for i := 0; i < 8192; i++ {
			buf, err = wire.AppendNetFrame(buf[:0], frame)
			if err != nil {
				panic(err)
			}
		}
	}), "ns")
	m.set("wire.netframe_decode_ns", perOp(8192, func() {
		for i := 0; i < 8192; i++ {
			fr, n, err := wire.DecodeNetFrame(buf)
			if err != nil {
				panic(err)
			}
			kernelSink += n + len(fr.Payload)
		}
	}), "ns")
	return nil
}

// sweep calls PacketAt for one full cycle of every channel and returns
// the number of calls.
func sweep(src station.PacketSource, chanSlots []int) int {
	calls := 0
	for ch, n := range chanSlots {
		for abs := 0; abs < n; abs++ {
			p, _ := src.PacketAt(ch, int64(abs))
			kernelSink += len(p.Payload)
			calls++
		}
	}
	return calls
}

// kernelStation: transmitter construction (the encode side: tables, and
// parity for the whole cycle), PacketAt on every transmitter kind, the
// shard planner, and the cost of the obs receiver instrumentation on a
// wire_lossy sample.
func kernelStation(cfg *runConfig, m metrics) error {
	inst, err := newWireLossy(cfg, cfg.seed)
	if err != nil {
		return err
	}
	wl := inst.(*wireLossyInst)
	lay := wl.lay

	var mt, mtFEC *station.MultiTransmitter
	m.set("station.tx_build_ms", onceMS(func() { mt, err = station.NewMultiTransmitter(lay) }), "ms")
	if err != nil {
		return err
	}
	m.set("station.tx_fec_build_ms", onceMS(func() { mtFEC, err = station.NewMultiTransmitterFEC(lay, wireLossyCode) }), "ms")
	if err != nil {
		return err
	}
	slotsOf := func(t *station.MultiTransmitter) []int {
		out := make([]int, lay.Channels())
		for ch := range out {
			out[ch] = t.ChanSlots(ch)
		}
		return out
	}
	plain, coded := slotsOf(mt), slotsOf(mtFEC)
	calls := sweep(mt, plain)
	m.set("station.packet_at_ns", perOp(calls, func() { sweep(mt, plain) }), "ns")
	before := mallocs()
	sweep(mt, plain)
	m.set("station.packet_at_allocs", float64(mallocs()-before)/float64(calls), "count")
	calls = sweep(mtFEC, coded)
	m.set("station.packet_at_fec_ns", perOp(calls, func() { sweep(mtFEC, coded) }), "ns")
	rb, err := station.NewRebroadcaster(lay)
	if err != nil {
		return err
	}
	calls = sweep(rb, plain)
	m.set("station.rebroadcast_packet_at_ns", perOp(calls, func() { sweep(rb, plain) }), "ns")

	// sched.Partition over a profile of the stream's first windows, as
	// wire_lossy's set-up runs it.
	m.set("sched.partition_ms", onceMS(func() {
		prof := sched.NewProfile(wl.x)
		stream := wl.stream(0)
		for i := 0; i < cfg.scale(wireLossyProfileN); i++ {
			w := stream.draw().w
			prof.AddRanges(wl.ds.Curve.AppendRanges(nil, w.MinX, w.MinY, w.MaxX, w.MaxY), 1)
		}
		_, err = sched.Partition(prof, netChannels-1)
	}), "ms")
	if err != nil {
		return err
	}

	// obs.InstrumentReceiver + registry over bare, same queries.
	queries := cfg.scale(400)
	sample := func(instrument bool) (time.Duration, error) {
		frx, err := station.NewFECReceiver(lay, 1, wl.tx, wireLossyCode, 0, nil)
		if err != nil {
			return 0, err
		}
		var rx dsi.Receiver = frx
		if instrument {
			reg := obs.NewRegistry()
			frx.SetObs(obs.NewFECMetrics(reg))
			rx = obs.InstrumentReceiver(rx, obs.NewReceiverMetrics(reg, lay.Channels()))
		}
		sess, err := dsi.Open(wl.x, dsi.WithReceiver(rx))
		if err != nil {
			return 0, err
		}
		stream := wl.stream(0)
		var buf []int
		t0 := time.Now()
		for i := 0; i < queries; i++ {
			q := stream.draw()
			sess.Tune(int64(q.phase*wl.cycle), broadcast.GilbertForTheta(wireLossyTheta, wireLossyBurst, q.loss))
			buf, _ = sess.WindowAppend(buf[:0], q.w)
		}
		return time.Since(t0), nil
	}
	var bare, inst2 []float64
	for i := 0; i < 3; i++ {
		b, err := sample(false)
		if err != nil {
			return err
		}
		d, err := sample(true)
		if err != nil {
			return err
		}
		bare, inst2 = append(bare, b.Seconds()), append(inst2, d.Seconds())
	}
	m.set("obs.instrument_overhead_ratio", median(inst2)/median(bare), "ratio")
	return nil
}

// kernelNet: a flat-out Block-mode station drained by raw subscribers
// that read and discard (netsrv alone: source read, framing, flush,
// fan-out), the client attach path, and a standalone Feed over a
// captured stream (netrecv alone).
func kernelNet(cfg *runConfig, m metrics) error {
	// Its own dataset seed, so the bootstrap below misses netrecv's
	// catalog cache whatever ran before in this process.
	seed := cfg.seed*7919 + 13
	_, _, lay, meta, err := shardStation(cfg.scale(netObjects), seed)
	if err != nil {
		return err
	}
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		return err
	}
	// Served from an image, as net_flood's station is: the drain rates
	// then bound that workload's slots_per_s from above.
	path := filepath.Join(cfg.tmp, fmt.Sprintf("kernel_net_%d.img", seed))
	defer os.Remove(path)
	img, err := imageOf(path, mt, meta)
	if err != nil {
		return err
	}
	defer img.Close()
	st, err := startBlockStation(img, nil, img.Meta())
	if err != nil {
		return err
	}
	defer st.close()

	m.set("netsrv.meta_ms", onceMS(func() {
		var resp *http.Response
		if resp, err = http.Get(st.hts.URL + "/v1/meta"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}), "ms")
	if err != nil {
		return err
	}

	drainFor := 400 * time.Millisecond
	if cfg.smoke {
		drainFor = 50 * time.Millisecond
	}
	for subs := 1; subs <= 2; subs++ {
		rate, err := drain(st, subs, drainFor)
		if err != nil {
			return err
		}
		m.set(fmt.Sprintf("netsrv.drain%d_slots_per_s", subs), rate, "1/s")
	}

	opt := netrecv.Options{Lossless: true, RingSlots: netFloodRing}
	var cat *netrecv.Catalog
	t0 := time.Now()
	if cat, err = netrecv.Bootstrap(st.hts.URL, opt); err != nil {
		return err
	}
	m.set("netrecv.bootstrap_ms", time.Since(t0).Seconds()*1e3, "ms")
	t0 = time.Now()
	rx, err := netrecv.NewHTTPReceiver(st.hts.URL, cat, opt)
	if err != nil {
		return err
	}
	m.set("netrecv.subscribe_ms", time.Since(t0).Seconds()*1e3, "ms")
	rx.Close()

	// A captured stream: one ring's worth of slots of every channel, as
	// netsrv frames them.
	const slots = 4096
	var stream []byte
	for abs := int64(0); abs < slots; abs++ {
		for ch := 0; ch < lay.Channels(); ch++ {
			pkt, ver := mt.PacketAt(ch, abs)
			stream, err = wire.AppendNetFrame(stream, wire.NetFrame{
				Kind: wire.NetData, Flags: pkt.Flags, Ch: uint16(ch), Slot: pkt.Slot, Ver: ver, Abs: abs, Payload: pkt.Payload,
			})
			if err != nil {
				return err
			}
		}
	}
	frames := slots * lay.Channels()
	var feed *netrecv.Feed
	m.set("netrecv.consume_ns_per_frame", perOp(frames, func() {
		feed = netrecv.NewFeed(lay.Channels(), netrecv.Options{RingSlots: slots}, nil)
		if _, err := feed.Consume(stream); err != nil {
			panic(err)
		}
	}), "ns")
	m.set("netrecv.packet_at_ns", perOp(frames, func() {
		for abs := int64(0); abs < slots; abs++ {
			for ch := 0; ch < lay.Channels(); ch++ {
				p, _ := feed.PacketAt(ch, abs)
				kernelSink += len(p.Payload)
			}
		}
	}), "ns")
	return nil
}

// drain subscribes subs raw HTTP readers to the station's stream, lets
// them read and discard for d, and returns the slots per second the
// station's clock advanced at.
func drain(st *blockStation, subs int, d time.Duration) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every subscriber dials its own connection. A stream that reuses a
	// keep-alive connection left by a small exchange (the /v1/meta GET)
	// now and then opens with a zero-window stall of 200 ms, the kernel's
	// persist timer; that is the client transport's cost, not netsrv's.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.hts.URL+"/v1/stream", nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer resp.Body.Close()
			// Reads as netrecv's stream loop does, 64 KB at a time. Small
			// reads (io.Copy to io.Discard moves 8 KB) reopen the loopback
			// receive window in steps too small to be announced, and the
			// station then sits out the kernel's persist timer, 200 ms and
			// more, on a full socket.
			buf := make([]byte, 64<<10)
			for {
				// Ends with the context's cancellation error.
				if _, err := resp.Body.Read(buf); err != nil {
					if ctx.Err() == nil {
						errs <- err
					}
					return
				}
			}
		}()
	}
	// Measure once the stream flows. About one new loopback connection in
	// twenty opens with a single zero-window stall of 200 ms some 20 ms
	// in, and flows from then on.
	st.waitClock(true, 40*time.Millisecond)
	slot0, t0 := st.srv.Now(), time.Now()
	time.Sleep(d)
	rate := float64(st.srv.Now()-slot0) / time.Since(t0).Seconds()
	cancel()
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
		return rate, nil
	}
}

// kernelDiskstore: the image path net_flood serves from (write, open,
// PacketAt), and the out-of-core build, which is on no served path and is
// recorded so a storage change has a before and an after.
func kernelDiskstore(cfg *runConfig, m metrics) error {
	dir, err := os.MkdirTemp(cfg.tmp, "kernel-diskstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	_, _, lay, meta, err := shardStation(cfg.scale(netObjects), cfg.seed)
	if err != nil {
		return err
	}
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		return err
	}
	info, ok := diskstore.InfoFor(mt, meta)
	if !ok {
		return fmt.Errorf("image layer cannot size a %T", mt)
	}
	path := filepath.Join(dir, "cycle.img")
	m.set("diskstore.write_image_ms", onceMS(func() { err = diskstore.WriteImageFile(path, mt, info) }), "ms")
	if err != nil {
		return err
	}
	var img *diskstore.ImageSource
	ns := perOp(1, func() {
		if img != nil {
			img.Close()
		}
		img, err = diskstore.OpenImage(path)
	})
	if err != nil {
		return err
	}
	defer img.Close()
	m.set("diskstore.open_image_us", ns/1e3, "us")
	chanSlots := make([]int, img.Channels())
	for ch := range chanSlots {
		chanSlots[ch] = img.ChanSlots(ch)
	}
	calls := sweep(img, chanSlots)
	m.set("diskstore.packet_at_ns", perOp(calls, func() { sweep(img, chanSlots) }), "ns")

	// External sort: 16-byte records, a budget of 1/16 of them, so the
	// sort spills 16 runs and merges them.
	records := cfg.scale(500_000)
	type rec struct{ key, val uint64 }
	codec := diskstore.Codec[rec]{
		Size: 16,
		Put: func(dst []byte, v rec) {
			binary.LittleEndian.PutUint64(dst, v.key)
			binary.LittleEndian.PutUint64(dst[8:], v.val)
		},
		Get: func(src []byte) rec {
			return rec{binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])}
		},
	}
	t0 := time.Now()
	sorter, err := diskstore.NewSorter(dir, codec, func(a, b rec) bool { return a.key < b.key }, records/16)
	if err != nil {
		return err
	}
	z := uint64(cfg.seed)
	for i := 0; i < records; i++ {
		z = z*6364136223846793005 + 1442695040888963407
		if err := sorter.Add(rec{key: z, val: uint64(i)}); err != nil {
			sorter.Close()
			return err
		}
	}
	merged, err := sorter.Merge()
	if err != nil {
		sorter.Close()
		return err
	}
	n := 0
	for _, ok := merged.Next(); ok; _, ok = merged.Next() {
		n++
	}
	if err := merged.Err(); err != nil {
		sorter.Close()
		return err
	}
	m.set("diskstore.sort_mrec_per_s", float64(n)/1e6/time.Since(t0).Seconds(), "1/s")
	m.set("diskstore.spilled_runs", float64(sorter.Spilled()), "count")
	if err := sorter.Close(); err != nil {
		return err
	}

	objects := cfg.scale(50_000)
	t0 = time.Now()
	_, err = diskstore.BuildImage(filepath.Join(dir, "built.img"),
		diskstore.UniformStream(objects, 10, cfg.seed),
		dsi.Config{Capacity: 64, ObjectBytes: 256},
		diskstore.BuildOptions{Budget: objects / 6, TmpDir: dir})
	if err != nil {
		return err
	}
	m.set("diskstore.build_image_s", time.Since(t0).Seconds(), "s")
	return nil
}

// kernelBench: what one recorded span costs, so span self times can be
// read net of the clock.
func kernelBench(_ *runConfig, m metrics) error {
	const spans = 1 << 14
	m.set("bench.span_clock_ns", perOp(spans, func() {
		r := newRecorder(time.Now(), 1)
		root := r.beginQuery(spanWindow, 0)
		for i := 0; i < spans; i++ {
			r.end(r.begin(spanPacketAt))
		}
		r.end(root)
	}), "ns")
	return nil
}
