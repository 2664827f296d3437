// net_live: the ROADMAP's own end-to-end. A real dsistation child
// process, paced at its default operating point, serves one HTTP and one
// UDP client over loopback; both run closed loops of mixed queries at
// the live edge. The station is open loop (it holds a slot clock whether
// or not anyone listens), the clients are closed loop.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/netrecv"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

var netLive = &workload{
	name:    "net_live",
	why:     "a paced real daemon over both transports: holding the slot clock, datagram loss, software time on top of air time, station and client CPU separately",
	prepare: buildStation,
	setup:   newNetLive,
}

const (
	netLiveObjects = 500
	netLiveRate    = 20000 // slots/sec: dsistation's default, below the knee
	netLiveWarmup  = 2 * time.Second
)

// stationBin is where prepare leaves the dsistation binary.
func stationBin(cfg *runConfig) string { return filepath.Join(cfg.tmp, "dsistation") }

// buildStation builds cmd/dsistation from the repository the benchmark
// measures. It runs before set-up is timed; a build failure refuses the
// run.
func buildStation(cfg *runConfig) error {
	cmd := exec.Command("go", "build", "-o", stationBin(cfg), "./cmd/dsistation")
	cmd.Dir = cfg.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/dsistation: %v\n%s", err, out)
	}
	return nil
}

// stationProc is a running dsistation child.
type stationProc struct {
	cmd     *exec.Cmd
	baseURL string
	udpAddr string
	stderr  strings.Builder
	drained sync.WaitGroup // the stdout/stderr readers
}

// children are the live station processes, so a signal to the benchmark
// can take them down with it.
var children = struct {
	sync.Mutex
	m map[*stationProc]struct{}
}{m: map[*stationProc]struct{}{}}

func stopChildren() {
	children.Lock()
	var live []*stationProc
	for p := range children.m {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.stop()
	}
}

// startStation launches the daemon on ephemeral loopback ports, reads
// the ports it bound from its stdout, and waits until /v1/meta answers.
func startStation(bin string, args ...string) (*stationProc, error) {
	p := &stationProc{cmd: exec.Command(bin, args...)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	children.m[p] = struct{}{}
	children.Unlock()

	p.drained.Add(1)
	go func() {
		defer p.drained.Done()
		_, _ = io.Copy(&p.stderr, stderr) // diagnostics only
	}()
	type ports struct{ http, udp string }
	found := make(chan ports, 1)
	p.drained.Add(1)
	go func() {
		defer p.drained.Done()
		var got ports
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "dsistation: udp subscribe on "); ok {
				got.udp = a
			}
			if a, ok := strings.CutPrefix(line, "dsistation: http on "); ok {
				got.http = a
				found <- got
			}
		}
	}()
	select {
	case got := <-found:
		p.baseURL, p.udpAddr = "http://"+got.http, got.udp
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, fmt.Errorf("dsistation printed no listen address within 15s; stderr: %s", p.stderr.String())
	}
	// Readiness: the listener is bound before the address is printed,
	// but the handler serves only once Serve runs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := p.meta(); err == nil {
			return p, nil
		} else if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("dsistation never answered /v1/meta: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the child, and kills it if it lingers.
// It is safe to call more than once.
func (p *stationProc) stop() {
	children.Lock()
	_, live := children.m[p]
	delete(children.m, p)
	children.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		p.drained.Wait()
		_ = p.cmd.Wait() // exit status of a terminated child carries no news
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

var metaClient = &http.Client{Timeout: 5 * time.Second}

// meta fetches the station's live catalog document.
func (p *stationProc) meta() (wire.StationMeta, error) {
	var m wire.StationMeta
	resp, err := metaClient.Get(p.baseURL + "/v1/meta")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/v1/meta: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// scrape fetches /metrics and sums the samples of each family, keyed
// "family" and "family{transport}" for the transport-labelled ones.
func (p *stationProc) scrape() (map[string]float64, error) {
	resp, err := metaClient.Get(p.baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		family, labels, _ := strings.Cut(series, "{")
		out[family] += v
		for _, tr := range []string{"http", "udp"} {
			if strings.Contains(labels, `transport="`+tr+`"`) {
				out[family+"{"+tr+"}"] += v
			}
		}
	}
	return out, sc.Err()
}

type netLiveInst struct {
	cfg  *runConfig
	seed int64
	proc *stationProc
	cat  *netrecv.Catalog
	reg  *obs.Registry
	hrx  *netrecv.HTTPReceiver
	urx  *netrecv.UDPReceiver
	// udpFrames is the counter the UDP feed increments per parsed datagram
	// (registries hand out one counter per name and label set).
	udpFrames *obs.Counter
}

func newNetLive(cfg *runConfig, seed int64) (instance, error) {
	in := &netLiveInst{cfg: cfg, seed: seed, reg: obs.NewRegistry()}
	in.udpFrames = obs.NewNetReceiverMetrics(in.reg, "udp").Frames
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	objects := netLiveObjects
	if cfg.smoke {
		objects = cfg.scale(netObjects)
	}
	var err error
	in.proc, err = startStation(stationBin(cfg),
		"-n", strconv.Itoa(objects), "-order", "8", "-seed", strconv.FormatInt(seed, 10),
		"-rate", strconv.Itoa(netLiveRate), "-channels", strconv.Itoa(netChannels), "-sched", "shard",
		"-http", "127.0.0.1:0", "-udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The registry only counts frames per transport (one atomic add per
	// frame); everything else about the receivers is the default.
	opt := netrecv.Options{Registry: in.reg}
	if in.cat, err = netrecv.Bootstrap(in.proc.baseURL, opt); err != nil {
		return nil, err
	}
	if in.hrx, err = netrecv.NewHTTPReceiver(in.proc.baseURL, in.cat, opt); err != nil {
		return nil, err
	}
	if in.urx, err = netrecv.NewUDPReceiver(in.proc.udpAddr, -1, in.cat, opt); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *netLiveInst) close() {
	if in.hrx != nil {
		in.hrx.Close()
	}
	if in.urx != nil {
		in.urx.Close()
	}
	if in.proc != nil {
		in.proc.stop()
	}
}

// liveReceiver is what the two transports' receivers share.
type liveReceiver interface {
	dsi.Receiver
	LiveSlot() int64
}

func (in *netLiveInst) clients(traced bool) ([]*client, error) {
	epoch := time.Now()
	rxs := []liveReceiver{in.hrx, in.urx}
	clients := make([]*client, len(rxs))
	for i, rx := range rxs {
		var rec *recorder
		if traced {
			// A paced station admits a few hundred queries per section:
			// every one is kept.
			rec = newRecorder(epoch, 1)
		}
		sess, err := dsi.Open(in.cat.X, dsi.WithReceiver(traceReceiver(rx, rec)))
		if err != nil {
			return nil, err
		}
		clients[i] = &client{
			sess: sess, ds: in.cat.DS, rec: rec, keepWalls: true,
			stream: newQueryStream(in.seed, i, len(rxs), in.cat.DS.Curve.Side(), 0.1, 0.5),
			tune: func(query) (int64, *broadcast.LossModel) {
				return rx.LiveSlot() + 1, nil
			},
		}
	}
	return clients, nil
}

func (in *netLiveInst) measure(d time.Duration, mode sectionMode) (tally, error) {
	clients, err := in.clients(mode == sectionTraced)
	if err != nil {
		return tally{}, err
	}
	warm := netLiveWarmup
	if warm > d/4 {
		warm = d / 4
	}
	warmUntil := time.Now().Add(warm)
	together(clients, func(c *client) { c.runUntil(warmUntil) })
	for _, c := range clients {
		c.reset()
	}

	pid := in.proc.cmd.Process.Pid
	lost0 := in.hrx.Feed().LostSlots() + in.urx.Feed().LostSlots()
	scrape0, err := in.proc.scrape()
	if err != nil {
		return tally{}, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return tally{}, err
	}
	clientUDP0 := in.udpFrames.Value()
	meta0, err := in.proc.meta()
	if err != nil {
		return tally{}, err
	}
	at0 := time.Now()

	t := runClients(clients, d)

	meta1, err := in.proc.meta()
	if err != nil {
		return tally{}, err
	}
	elapsed := time.Since(at0).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return tally{}, err
	}
	clientUDP1 := in.udpFrames.Value()
	tScrape := time.Now()
	scrape1, err := in.proc.scrape()
	if err != nil {
		return tally{}, err
	}
	scrapeMS := time.Since(tScrape).Seconds() * 1e3
	lost1 := in.hrx.Feed().LostSlots() + in.urx.Feed().LostSlots()

	capacity := float64(in.cat.X.Cfg.Capacity)
	t.latBytes *= capacity
	t.tunBytes *= capacity

	slots := float64(meta1.Now - meta0.Now)
	rate := float64(meta0.SlotsPerSec)
	t.extra.set("slots_per_s", slots/elapsed, "1/s")
	t.extra.set("slot_hold_ratio", slots/(elapsed*rate), "ratio")
	t.extra.set("lost_slot_ratio", float64(lost1-lost0)/(slots*float64(netChannels)*float64(len(clients))), "ratio")
	t.extra.set("station_cpu_us_per_kslot", float64((cpu1-cpu0).Microseconds())/(slots/1000), "us")

	var ratios []float64
	for _, c := range clients {
		for i, wall := range c.walls {
			if air := c.airSlots[i] / rate; air > 0 {
				ratios = append(ratios, wall/air)
			}
		}
	}
	t.extra.set("wall_over_air_p50", quantile(ratios, 0.5), "ratio")
	// A tail percentile is quoted only while at least ten samples lie
	// beyond it; the sample count is part of the result.
	if highestPercentile(len(ratios)) >= 95 {
		t.extra.set("wall_over_air_p95", quantile(ratios, 0.95), "ratio")
	}
	t.extra.set("wall_over_air_samples", float64(len(ratios)), "count")

	t.extra.set("netrecv.http_lost_slots", float64(in.hrx.Feed().LostSlots()), "count")
	t.extra.set("netrecv.udp_lost_slots", float64(in.urx.Feed().LostSlots()), "count")
	t.extra.set("netrecv.reconnects", float64(in.hrx.Reconnects()+in.urx.Reconnects()), "count")
	t.extra.set("netsrv.dropped_batches", scrape1["station_net_dropped_batches_total"]-scrape0["station_net_dropped_batches_total"], "count")
	udpSent := func(scrape map[string]float64) float64 {
		return scrape["station_net_frames_total{udp}"] + scrape["station_net_ctrl_frames_total{udp}"]
	}
	if sent := udpSent(scrape1) - udpSent(scrape0); sent > 0 {
		// Data and control frames both: the feed counts every datagram it
		// parses. The two scrapes bracket the two client-side readings, so
		// the station's count covers a slightly longer interval and the
		// ratio reads a hair under 1 on a loss-free run.
		t.extra.set("netsrv.udp_delivered_ratio", float64(clientUDP1-clientUDP0)/sent, "ratio")
	}
	t.extra.set("obs.scrape_ms", scrapeMS, "ms")
	return t, nil
}

func (in *netLiveInst) layers(dec tally) metrics { return netLayers(dec) }
