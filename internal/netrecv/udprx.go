// The datagram transports. A unicast receiver subscribes with
// "DSIJOIN <ch>" on the station's UDP port, keeps the lease alive with
// periodic pings, and reads one slot per datagram — the frames of its
// channels at one absolute slot, control frames ahead of them (several
// datagrams when a slot outgrows the station's budget; the feed parses
// however many frames a datagram holds); a multicast receiver just joins
// each channel's group (base address, port + channel) and listens. A
// datagram that never arrives is a hole in each of its channels that the
// feed declares lost once the clock passes it. A radio hears one channel
// at a time and FEC units are per channel, so that is still one lost
// slot to the decoder — exactly the loss model the FEC framing recovers
// from, which is what makes UDP the honest transport for the broadcast
// metaphor.

package netrecv

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"dsi/internal/obs"
	"dsi/internal/wire"
)

// udpPingEvery keeps the unicast lease alive (the station expires
// subscriptions after 30s without traffic).
const udpPingEvery = 10 * time.Second

// udpReadBuffer asks the kernel for enough socket buffer to absorb
// paced bursts without drops being the OS's fault.
const udpReadBuffer = 4 << 20

// UDPReceiver is a dsi.Receiver fed from the station's datagram
// emission, unicast or multicast.
type UDPReceiver struct {
	Receiver
}

// NewUDPReceiver subscribes to the station's unicast datagram port
// (the address a bootstrap catalog carries in Meta.UDP). ch selects a
// single channel, or -1 for all of them.
func NewUDPReceiver(stationAddr string, ch int, cat *Catalog, opt Options) (*UDPReceiver, error) {
	opt = opt.withDefaults()
	raddr, err := net.ResolveUDPAddr("udp", stationAddr)
	if err != nil {
		return nil, fmt.Errorf("netrecv: station address: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("netrecv: udp dial: %w", err)
	}
	_ = conn.SetReadBuffer(udpReadBuffer)
	met := obs.NewNetReceiverMetrics(opt.Registry, "udp")
	feed := newFeed(cat, opt, met)
	ctx, cancel := context.WithCancel(context.Background())
	u := &UDPReceiver{Receiver: Receiver{feed: feed, met: met, cancel: cancel}}
	if _, err := fmt.Fprintf(conn, "DSIJOIN %d", ch); err != nil {
		u.Close()
		conn.Close()
		return nil, fmt.Errorf("netrecv: udp join: %w", err)
	}
	go u.datagramLoop(conn)
	go func() {
		tick := time.NewTicker(udpPingEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				_, _ = conn.Write([]byte("DSILEAVE"))
				_ = conn.Close()
				return
			case <-tick.C:
				_, _ = conn.Write([]byte("DSIPING"))
			}
		}
	}()
	dec, err := newDecoder(cat, feed, opt)
	if err != nil {
		u.Close()
		return nil, err
	}
	u.Receiver.Receiver = dec
	return u, nil
}

// NewMulticastReceiver joins every channel's multicast group under the
// base address (the one a bootstrap catalog carries in Meta.Multicast:
// channel c streams on port+c) and listens without any per-client
// state at the station. Coded broadcasts must wait out one control
// cadence before the decoder can validate the FEC descriptor, so the
// effective bootstrap wait should exceed CtrlEvery/SlotsPerSec.
func NewMulticastReceiver(base string, cat *Catalog, opt Options) (*UDPReceiver, error) {
	opt = opt.withDefaults()
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("netrecv: multicast base %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netrecv: multicast base %q: %w", base, err)
	}
	met := obs.NewNetReceiverMetrics(opt.Registry, "mcast")
	feed := newFeed(cat, opt, met)
	ctx, cancel := context.WithCancel(context.Background())
	u := &UDPReceiver{Receiver: Receiver{feed: feed, met: met, cancel: cancel}}
	conns := make([]*net.UDPConn, 0, cat.Lay.Channels())
	for c := 0; c < cat.Lay.Channels(); c++ {
		gaddr, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, strconv.Itoa(port+c)))
		if err != nil || !gaddr.IP.IsMulticast() {
			u.Close()
			for _, done := range conns {
				_ = done.Close()
			}
			return nil, fmt.Errorf("netrecv: channel %d group %v is not a multicast address", c, gaddr)
		}
		conn, err := net.ListenMulticastUDP("udp", nil, gaddr)
		if err != nil {
			u.Close()
			for _, done := range conns {
				_ = done.Close()
			}
			return nil, fmt.Errorf("netrecv: join channel %d group: %w", c, err)
		}
		_ = conn.SetReadBuffer(udpReadBuffer)
		conns = append(conns, conn)
		go u.datagramLoop(conn)
	}
	go func() {
		<-ctx.Done()
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	dec, err := newDecoder(cat, feed, opt)
	if err != nil {
		u.Close()
		return nil, err
	}
	u.Receiver.Receiver = dec
	return u, nil
}

// datagramLoop feeds every datagram until the socket closes. Each
// datagram is self-contained (the station sends whole frames, one slot
// per datagram), so a malformed one is discarded alone — datagram
// streams cannot desync.
func (u *UDPReceiver) datagramLoop(conn *net.UDPConn) {
	buf := make([]byte, wire.MaxNetPayload+wire.NetFrameHeader)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return
		}
		if _, err := u.feed.Consume(buf[:n]); err != nil {
			continue // counted as garbage by the feed
		}
	}
}
