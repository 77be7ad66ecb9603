// Package worker is a fixture violating the deadline contract: an
// unbounded dial, a framed connection over a raw net.Conn, and a raw
// net.Conn kept in a struct.
package worker

import (
	"net"

	"repro/internal/proto"
)

func Connect(addr string) (*proto.Conn, error) {
	nc, err := net.Dial("tcp", addr) // want `net.Dial has no deadline`
	if err != nil {
		return nil, err
	}
	return proto.NewConn(nc), nil // want `proto.NewConn over a raw net.Conn`
}

func Ask(nc net.Conn) {
	proto.OneShot(nc, func(c *proto.Conn) { _ = c.Flush() }) // want `proto.OneShot over a raw net.Conn`
}

type link struct{ conn net.Conn }

func Keep(nc net.Conn) *link {
	return &link{conn: nc} // want `net.Conn field conn set to a raw connection`
}
