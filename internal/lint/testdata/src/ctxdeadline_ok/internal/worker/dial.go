// Package worker is a clean fixture for the deadline contract: dials
// are bounded, wire connections are idle-deadline wrapped, and
// in-memory transports carry no deadline obligation.
package worker

import (
	"bytes"
	"net"
	"time"

	"repro/internal/proto"
)

func Connect(addr string, idle time.Duration) (*proto.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, idle)
	if err != nil {
		return nil, err
	}
	return proto.NewConn(proto.WithIdleTimeout(nc, idle)), nil
}

func Loopback(buf *bytes.Buffer) *proto.Conn {
	return proto.NewConn(buf) // no wire involved: never flagged
}

func Ask(nc net.Conn, idle time.Duration) {
	proto.OneShot(proto.WithIdleTimeout(nc, idle), func(c *proto.Conn) { _ = c.Flush() })
}
