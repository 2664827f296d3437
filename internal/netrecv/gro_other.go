//go:build !linux

package netrecv

import "net"

// groOOBSize is the control-message space of one read: none, since
// off Linux every read is one datagram.
const groOOBSize = 0

// enableGRO does nothing off Linux: every read is one datagram.
func enableGRO(*net.UDPConn) {}

// readDatagrams reads one datagram into buf; seg 0 says so.
func readDatagrams(c *net.UDPConn, buf, _ []byte) (n, seg int, err error) {
	n, err = c.Read(buf)
	return n, 0, err
}
