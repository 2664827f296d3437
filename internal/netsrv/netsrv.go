// Package netsrv is the transmit side of the broadcast station as a
// network service: it walks a station.PacketSource on a paced absolute
// slot clock and emits every packet as a position-stamped net frame
// (wire.NetFrame) over real transports — bare HTTP streams for
// firewall-friendly reliable delivery, UDP unicast with a datagram
// subscribe protocol, and UDP multicast groups (one group per broadcast
// channel) for the true shared-medium metaphor.
//
// Invariants the receiving side (internal/netrecv) relies on:
//
//   - The absolute slot clock is global across channels and never goes
//     backwards: at slot abs, every channel's packet for abs is emitted
//     before any packet for abs+1, on every transport (a flush is laid
//     out and written slot-major). Receivers therefore treat the
//     stream's high-water mark as the live clock.
//   - One UDP datagram carries one slot of one subscription: the
//     frames of the subscribed channels at one absolute slot, control
//     frames ahead of them, split only past dgramBudget bytes. A radio
//     listens to one channel at a time and FEC units are per channel,
//     so transport loss stays slot-granular — the loss model the FEC
//     framing was built for. HTTP streams concatenate frames; TCP
//     makes them lossless but a severed stream loses the gap between
//     disconnect and reconnect.
//   - The versioned shard directory and FEC descriptor ride in-band:
//     at the head of every new subscription and every CtrlEvery slots
//     thereafter, every subscription carries NetDir/NetFECDesc control
//     frames sampled from the source at the emission slot, once, ahead
//     of that slot's data frames. A receiver that tunes in stale or
//     reconnects across a seam swap learns the bump from these frames
//     alone.
//   - The emitted bytes are exactly what the in-process PacketSource
//     serves: a loss-free network link is bit-identical to reading the
//     source directly (regression-enforced in netrecv's tests).
//
// The server never blocks the slot clock on a slow consumer (except in
// the test-only Block mode): HTTP subscribers that cannot drain their
// batch queue lose whole batches (counted), exactly like a radio that
// drifted off frequency.
package netsrv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// Config assembles a network station over a packet source.
type Config struct {
	// Source is the broadcast being served. A station.MultiTransmitter
	// is read for /v1/meta as its committed generation (layout, version
	// and FEC descriptor from one snapshot), so the document follows its
	// directory swaps; any other source is static.
	Source station.PacketSource
	// Layout is the channel layout the source transmits (its initial
	// layout for a producer that swaps). It may be nil when Source exposes
	// Channels() int — a daemon serving an mmap'd wire-cycle image
	// (diskstore.ImageSource) has no in-memory layout at all.
	Layout *dsi.Layout
	// Meta is the catalog document served at /v1/meta; the live fields
	// (Version, FECDesc, Now, SlotsPerSec, CtrlEvery, UDP, Multicast)
	// are overwritten at serving time.
	Meta wire.StationMeta
	// SlotsPerSec paces the slot clock; <= 0 streams flat out (tests).
	SlotsPerSec int
	// CtrlEvery is the control-frame cadence in slots (default 256).
	CtrlEvery int
	// Registry, when set, registers the station_net_* families and
	// mounts /metrics + /debug/pprof on the handler.
	Registry *obs.Registry
	// Tick, when set, runs once per flush with the next slot to be
	// emitted — the hook a daemon uses to drive swap commits.
	Tick func(abs int64)
	// Block makes publishing block on slow subscribers instead of
	// dropping batches: lossless end-to-end delivery for regression
	// tests. Never enable it on a real daemon — one stuck client
	// would stall the broadcast for everyone.
	Block bool
}

// Server is a running network station: one pacer goroutine emitting
// the slot clock, plus per-subscriber writer goroutines.
type Server struct {
	cfg  Config
	src  station.PacketSource
	lay  *dsi.Layout
	nch  int
	ctrl int

	httpMet  *obs.NetStationMetrics
	udpMet   *obs.NetStationMetrics
	mcastMet *obs.NetStationMetrics

	abs atomic.Int64

	mu    sync.Mutex
	conns map[*streamConn]struct{}

	udp *udpEmitter // nil until ServeUDP

	pub []*streamConn // publish's subscriber snapshot, reused every flush

	// runs[ch] is channel ch's packets of one flush, read in one run, and
	// scratch[ch] the buffer the source builds their payloads into: for a
	// transmitter, a flush of widest payloads, so no run allocates; nil
	// for a source that serves bytes it holds. buildFlush lays every frame
	// out from them before the next flush's runs are read.
	runs    [][]station.Packet
	scratch [][]byte

	// batch is the slots of one flush, and depth the flushes a
	// subscriber queue holds (see flushShape).
	batch, depth int

	// free holds released flushes for buildFlush to fill again. What is
	// in flight at once — a queue's worth, the flush being built and one
	// under each writer — comes back in one burst when stalled
	// subscribers resume; twice the queue depth keeps all of it.
	free chan *flush

	mcastAddrs []string // advertised base, set by EnableMulticast
}

// New assembles a server over the source. The layout must match the
// source's channel geometry; without one the source itself must report
// its channel count.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("netsrv: source is required")
	}
	nch := 0
	if cfg.Layout != nil {
		nch = cfg.Layout.Channels()
	} else if c, ok := cfg.Source.(interface{ Channels() int }); ok {
		nch = c.Channels()
	} else {
		return nil, fmt.Errorf("netsrv: layout is required (source does not expose its channel count)")
	}
	if cfg.CtrlEvery <= 0 {
		cfg.CtrlEvery = 256
	}
	s := &Server{
		cfg:   cfg,
		src:   cfg.Source,
		lay:   cfg.Layout,
		nch:   nch,
		ctrl:  cfg.CtrlEvery,
		conns: make(map[*streamConn]struct{}),
	}
	s.batch, s.depth = flushShape(cfg.SlotsPerSec)
	s.free = make(chan *flush, 2*s.depth)
	slotBytes := 0 // what the source builds a slot's payload in, at most
	if mt, ok := cfg.Source.(*station.MultiTransmitter); ok {
		slotBytes = mt.Layout().X.Cfg.Capacity + wire.ParityHeaderSize
	}
	s.runs, s.scratch = make([][]station.Packet, nch), make([][]byte, nch)
	for ch := range s.runs {
		s.runs[ch] = make([]station.Packet, s.batch)
		if slotBytes > 0 {
			s.scratch[ch] = make([]byte, 0, s.batch*slotBytes)
		}
	}
	s.httpMet = obs.NewNetStationMetrics(cfg.Registry, "http", s.nch)
	return s, nil
}

// Now returns the absolute slot the pacer will emit next — the live
// edge of the broadcast.
func (s *Server) Now() int64 { return s.abs.Load() }

func (s *Server) hasConns() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns) > 0
}

// flushShape returns the slots of one flush and the depth of a
// subscriber queue for a station paced at rate slots a second. A paced
// station flushes every 5 ms, rate/200 slots (1 to 4096), into queues of
// streamQueueDepth. A flat-out one (rate <= 0) sends flatOutSlots at a
// time into queues of maxQueuedSlots/flatOutSlots, so what a stalled
// subscriber holds is bounded as before while every Write and every
// wake-up of the pipeline carries four times the slots.
func flushShape(rate int) (batch, depth int) {
	if rate <= 0 {
		return flatOutSlots, maxQueuedSlots / flatOutSlots
	}
	return min(max(rate/200, 1), 4096), streamQueueDepth
}

// Run drives the slot clock until the context is cancelled, one flush of
// the station's batch at a time (see flushShape): on the rate's ticker
// when paced, back to back when flat out. It never returns another
// error: transport failures affect individual subscribers, not the
// broadcast.
func (s *Server) Run(ctx context.Context) error {
	var tick *time.Ticker
	if rate := s.cfg.SlotsPerSec; rate > 0 {
		tick = time.NewTicker(time.Duration(s.batch) * time.Second / time.Duration(rate))
		defer tick.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		// A lossless station without subscribers must not burn the
		// clock: the whole point of Block mode is that every emitted
		// slot is consumed exactly once.
		for s.cfg.Block && !s.hasConns() {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(time.Millisecond):
			}
		}
		if s.cfg.Tick != nil {
			s.cfg.Tick(s.abs.Load())
		}
		fs := s.buildFlush(s.batch)
		s.publish(ctx, fs)
		if tick != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
			}
		}
	}
}

// buildFlush encodes the next batchSlots slots in air order — each
// slot's control frames at the cadence boundaries, then every channel's
// packet — and advances the published clock. Each channel's packets are
// read in one run, and each frame is encoded in place in the flush. A
// payload wider than a frame carries goes out as the zero packet, which
// every receiver counts as a lost slot, and is counted.
func (s *Server) buildFlush(batchSlots int) *flush {
	fl := s.newFlush()
	abs := s.abs.Load()
	for ch, run := range s.runs {
		if len(run) < batchSlots {
			run = make([]station.Packet, batchSlots)
			s.runs[ch] = run
		}
		s.src.ReadRunAt(run[:batchSlots], s.scratch[ch], ch, abs)
	}
	f := wire.NetFrame{Kind: wire.NetData}
	for i := range batchSlots {
		f.Abs = abs + int64(i)
		if f.Abs%int64(s.ctrl) == 0 {
			s.appendCtrl(fl, f.Abs)
		}
		for ch, run := range s.runs {
			p := &run[i]
			f.Flags, f.Ch, f.Slot, f.Ver, f.Payload = p.Flags, uint16(ch), p.Slot, p.Ver, p.Payload
			if len(p.Payload) > wire.MaxNetPayload {
				f.Flags, f.Slot, f.Ver, f.Payload = 0, 0, 0, nil
				if m := s.httpMet; m != nil {
					m.Oversized.Inc()
				}
			}
			fl.add(&f, ch)
		}
	}
	fl.slots = batchSlots
	s.abs.Store(abs + int64(batchSlots))
	return fl
}

// appendCtrl appends the control frames as on air at abs: the FEC
// descriptor (sources that ship one) and the versioned directory
// (multi-channel broadcasts). Every subscription carries them, so a
// single-channel one still hears the full control stream. The
// descriptor goes first: a receiver acts on a directory bump only once
// the descriptor of the same version is in hand, so on an ordered
// transport it never sees the bump ahead of its code. An oversized
// control payload is left out rather than sent truncated.
func (s *Server) appendCtrl(fl *flush, abs int64) {
	if desc, fver := s.src.FECDescAt(abs); desc != nil && len(desc) <= wire.MaxNetPayload {
		fl.add(&wire.NetFrame{Kind: wire.NetFECDesc, Ver: fver, Abs: abs, Payload: desc}, -1)
	}
	if dir, dver := s.src.DirectoryAt(abs); dir != nil && len(dir) <= wire.MaxNetPayload {
		fl.add(&wire.NetFrame{Kind: wire.NetDir, Ver: dver, Abs: abs, Payload: dir}, -1)
	}
}

// ctrlSnapshot is a flush of the current control frames alone — what a
// new subscription receives before its first data frame, so receivers
// can bootstrap FEC validation and stale catalogs without waiting a
// cadence period. The caller owns its one reference.
func (s *Server) ctrlSnapshot() *flush {
	fl := s.newFlush()
	s.appendCtrl(fl, s.abs.Load())
	return fl
}

// publish hands the flush to every subscriber — HTTP queues (dropping
// on lag unless Block) and the datagram sender — and gives up the
// pacer's reference. Whoever does not take it releases its share.
func (s *Server) publish(ctx context.Context, fl *flush) {
	defer s.release(fl)
	s.mu.Lock()
	s.pub = s.pub[:0]
	for c := range s.conns {
		s.pub = append(s.pub, c)
	}
	udp := s.udp
	s.mu.Unlock()
	for _, c := range s.pub {
		fl.refs.Add(1)
		if s.cfg.Block {
			select {
			case c.q <- fl:
				continue
			case <-ctx.Done():
				s.release(fl)
				return
			case <-c.done:
			}
		} else {
			select {
			case c.q <- fl:
				continue
			default:
				if m := s.httpMet; m != nil {
					m.Drops.Inc()
				}
			}
		}
		s.release(fl)
	}
	if udp != nil {
		udp.publish(fl)
	}
}

// meta builds the live catalog document.
func (s *Server) meta() wire.StationMeta {
	m := s.cfg.Meta
	abs := s.abs.Load()
	m.Now = abs
	m.SlotsPerSec = s.cfg.SlotsPerSec
	m.CtrlEvery = s.ctrl
	if mt, ok := s.src.(*station.MultiTransmitter); ok {
		// One generation throughout: a client that bootstraps while a
		// swap is in flight gets the committed catalog, exactly one
		// version stale, and follows the bump in-band.
		var lay *dsi.Layout
		lay, m.Version, m.FECDesc = mt.Committed()
		m.ShardBounds, m.Channels = lay.ShardBounds(), lay.Channels()
	} else {
		_, m.Version = s.src.DirectoryAt(abs)
		m.FECDesc, _ = s.src.FECDescAt(abs)
	}
	if s.udp != nil {
		m.UDP = s.udp.addr
	}
	if len(s.mcastAddrs) > 0 {
		m.Multicast = s.mcastAddrs[0]
	}
	return m
}
