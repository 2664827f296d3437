// Netstation: the network station end to end over real sockets. One
// process plays both roles: a netsrv station serves a 3-channel shard
// broadcast on loopback (ephemeral HTTP and UDP ports), and network
// clients bootstrap the catalog from /v1/meta, verify it by checksum,
// attach over a bare HTTP stream and UDP unicast, and answer
// window and kNN queries from the live stream — the exact path
// `dsistation` + `dsiquery -net` walk across processes (see
// docs/OPERATIONS.md for the daemon guide). The station-side and
// client-side metric families are dumped at the end.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/netsrv"
	"dsi/internal/obs"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

func main() {
	// --- The station side: exactly what cmd/dsistation assembles. ---
	const (
		nObj  = 500
		order = uint(7)
		seed  = int64(1)
	)
	ds := dataset.Uniform(nObj, order, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 1, ReserveMCPtr: true})
	check(err)
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 3, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 2, x.NF},
	})
	check(err)
	src, err := station.NewMultiTransmitter(lay)
	check(err)

	reg := obs.NewRegistry()
	srv, err := netsrv.New(netsrv.Config{
		Source: src, Layout: lay,
		Meta: wire.StationMeta{
			Dataset: wire.StationDataset{
				Kind: "uniform", N: nObj, Order: order, Seed: seed, Sum: ds.Checksum(),
			},
			Capacity: 64, Segments: 1, ReserveMCPtr: true,
			Channels: lay.Channels(), Scheduler: "shard", SwitchSlots: 2,
			ShardBounds: lay.ShardBounds(),
		},
		SlotsPerSec: 8000, CtrlEvery: 128, Registry: reg,
	})
	check(err)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	udpAddr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	go func() { _ = srv.Run(ctx) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("station up: %s (udp %s), %d objects over %d-channel shard layout\n\n",
		baseURL, udpAddr, nObj, lay.Channels())

	// --- The client side: bootstrap, attach, query. ---
	// Bootstrap fetches /v1/meta, regenerates the identical dataset
	// and index locally, and proves the derivation by checksum before
	// trusting a single decoded pointer.
	opt := netrecv.Options{Registry: reg}
	cat, err := netrecv.Bootstrap(baseURL, opt)
	check(err)
	fmt.Printf("bootstrap: catalog %q checksum ok, directory v%d\n\n", cat.DS.Name, cat.Version())

	// An HTTP streaming client: 5NN at the grid center.
	hrx, err := netrecv.NewHTTPReceiver(baseURL, cat, opt)
	check(err)
	sess, err := dsi.Open(cat.X, dsi.WithReceiver(hrx))
	check(err)
	sess.Tune(hrx.LiveSlot(), nil)
	q := spatial.Point{X: 64, Y: 64}
	ids, st := sess.KNN(q, 5, dsi.Conservative)
	fmt.Printf("http client, 5NN at %v:\n", q)
	for _, id := range ids {
		o := cat.DS.ByID(id)
		fmt.Printf("  object %3d at %v\n", o.ID, o.P)
	}
	fmt.Printf("  cost: latency %d bytes, tuning %d bytes\n\n", st.LatencyBytes(), st.TuningBytes())
	hrx.Close()

	// A UDP unicast client over the same catalog: a window query. A
	// dropped datagram here would surface as an ordinary slot loss —
	// on loopback there are none, and the FEC/retry machinery never
	// has to wake up.
	urx, err := netrecv.NewUDPReceiver(udpAddr, -1, cat, opt)
	check(err)
	usess, err := dsi.Open(cat.X, dsi.WithReceiver(urx))
	check(err)
	usess.Tune(urx.LiveSlot(), nil)
	w := spatial.Rect{MinX: 40, MinY: 40, MaxX: 90, MaxY: 90}
	wids, wst := usess.Window(w)
	fmt.Printf("udp client, window %v: %d objects\n", w, len(wids))
	fmt.Printf("  cost: latency %d bytes, tuning %d bytes\n", wst.LatencyBytes(), wst.TuningBytes())
	fmt.Printf("  reconnects %d, lost slots %d\n\n", urx.Reconnects(), urx.Feed().LostSlots())
	urx.Close()

	// --- The operational surface both sides share. ---
	fmt.Printf("station emitted %d frames over http, %d over udp (%d control frames all told)\n",
		sumLabel(reg, "station_net_frames_total", "http"),
		sumLabel(reg, "station_net_frames_total", "udp"),
		reg.Sum("station_net_ctrl_frames_total"))
	fmt.Printf("clients received %d frames, declared %d slots lost\n\n",
		reg.Sum("netrecv_frames_total"), reg.Sum("netrecv_lost_slots_total"))
	fmt.Println("--- /metrics (station_net_* and netrecv_* families) ---")
	var buf bytes.Buffer
	check(reg.WriteText(&buf))
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "station_net_") || strings.Contains(line, "netrecv_") {
			fmt.Println(line)
		}
	}
}

// sumLabel folds one transport's series out of the snapshot (Sum folds
// every transport together).
func sumLabel(reg *obs.Registry, name, transport string) int64 {
	var total float64
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, name) && strings.Contains(k, `transport="`+transport+`"`) {
			total += v
		}
	}
	return int64(total)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netstation:", err)
		os.Exit(1)
	}
}
