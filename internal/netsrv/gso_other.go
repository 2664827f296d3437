//go:build !linux

package netsrv

import "net"

// segmentOOBSize is the control-message space of one segmented send:
// none, since no send is segmented off Linux.
const segmentOOBSize = 0

// canSegment reports whether the kernel under c cuts a segmented send:
// off Linux it never does, and every datagram is a write of its own.
func canSegment(*net.UDPConn) bool { return false }

// segmentMsg is never called off Linux: no subscription segments.
func segmentMsg(oob []byte, _ int) []byte { return oob[:0] }
