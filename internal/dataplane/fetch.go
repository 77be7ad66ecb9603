package dataplane

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/content"
	"repro/internal/proto"
)

// link is one TCP connection between two data planes, under
// proto.WithIdleTimeout: a requester's link to a peer's data server, or
// that server's end of it. Requests and responses alternate on a link, so
// between two exchanges nothing is in flight and nothing is buffered: the
// read buffer is borrowed per exchange (proto.OneShot), and an idle link
// holds only this.
type link struct {
	conn net.Conn
	addr string  // the peer's data address (fetch side)
	next *link   // the plane's list of idle outbound, or of inbound, links
	read int     // bytes read in the current exchange
	head [1]byte // a request's first byte, read before its exchange (serve side)
	held bool    // head has not been read yet
}

func (l *link) Read(b []byte) (int, error) {
	if l.held && len(b) > 0 {
		b[0], l.held = l.head[0], false
		l.read++
		return 1, nil
	}
	n, err := l.conn.Read(b)
	l.read += n
	return n, err
}

func (l *link) Write(b []byte) (int, error) { return l.conn.Write(b) }

// unlink removes l from the list at *head, reporting whether it was
// there.
func unlink(head **link, l *link) bool {
	for pp := head; *pp != nil; pp = &(*pp).next {
		if *pp == l {
			*pp, l.next = l.next, nil
			return true
		}
	}
	return false
}

// closeAll closes every link of a list no one else holds.
func closeAll(l *link) {
	for ; l != nil; l = l.next {
		l.conn.Close()
	}
}

// frameLen is the bytes on the wire of a frame whose body after the
// type byte is raw: the length prefix, the type byte, then raw.
func frameLen(raw []byte) int { return 5 + len(raw) }

// FetchPeer requests an object by ID from the data server at addr. It is
// the plane's fetch unless Config.Fetch replaces it. It takes the plane's
// idle link to addr or dials a new one, and gives the link back only
// after a clean exchange: the whole response read, nothing after it. A
// reused link that fails before any byte of the response arrives, and
// not at the idle deadline, was closed by the peer while idle (its own
// deadline, or a restart), so the fetch is tried once more on a fresh
// dial; a silent peer is not. The dial, the request write
// and every read of the response must each make progress within
// IdleTimeout, so a stalled or vanished peer costs a bounded wait.
func (p *Plane) FetchPeer(addr, id string) (*content.Object, error) {
	if l := p.takeLink(addr); l != nil {
		obj, err := p.exchange(l, id)
		if err == nil || l.read > 0 || isTimeout(err) {
			return obj, err
		}
	}
	dial := p.cfg.IdleTimeout
	if dial > 5*time.Second {
		dial = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, dial)
	if err != nil {
		return nil, fmt.Errorf("dataplane: dialing peer %s: %w", addr, err)
	}
	return p.exchange(&link{conn: proto.WithIdleTimeout(nc, p.cfg.IdleTimeout), addr: addr}, id)
}

// exchange asks the peer on l for one object, then keeps l as the idle
// link to its address or closes it.
func (p *Plane) exchange(l *link, id string) (obj *content.Object, err error) {
	l.read = 0
	clean := false
	proto.OneShot(l, func(pc *proto.Conn) {
		var n int
		obj, n, err = request(pc, id)
		clean = n > 0 && n == l.read
	})
	if clean {
		p.putLink(l)
	} else {
		l.conn.Close()
	}
	return obj, err
}

// idleLocked returns the idle link to addr, or nil.
func (p *Plane) idleLocked(addr string) *link {
	l := p.idle
	for l != nil && l.addr != addr {
		l = l.next
	}
	return l
}

// takeLink removes and returns the idle link to addr, if there is one.
func (p *Plane) takeLink(addr string) *link {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.idleLocked(addr)
	if l != nil {
		unlink(&p.idle, l)
	}
	return l
}

// putLink keeps l as the idle link to its address, unless one is kept
// already or the plane is closed.
func (p *Plane) putLink(l *link) {
	p.mu.Lock()
	keep := !p.closed && p.idleLocked(l.addr) == nil
	if keep {
		l.next, p.idle = p.idle, l
	}
	p.mu.Unlock()
	if !keep {
		l.conn.Close()
	}
}

// isTimeout reports whether err is an idle deadline: a silent peer,
// whose link is not stale and is not tried twice.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// request asks the peer on pc for one object and validates the answer.
// n is the length of the response frame on the wire, 0 if none arrived
// whole.
func request(pc *proto.Conn, id string) (obj *content.Object, n int, err error) {
	if err := pc.Send(proto.MsgGetFile, proto.GetFile{ID: id}); err != nil {
		return nil, 0, err
	}
	t, raw, err := pc.Recv()
	if err != nil {
		return nil, 0, fmt.Errorf("dataplane: reading peer response: %w", err)
	}
	n = frameLen(raw)
	switch t {
	case proto.MsgFileDataBulk:
		hdr, payload, err := proto.DecodeFileData(raw)
		if err != nil {
			return nil, n, err
		}
		// payload is the frame's own buffer, allocated at the frame's exact
		// size — retained as the object's data, the only copy of the bytes
		// this worker will hold.
		obj := hdr.Object(payload)
		if err := obj.Validate(); err != nil {
			return nil, n, fmt.Errorf("dataplane: peer sent corrupt object: %w", err)
		}
		return obj, n, nil
	case proto.MsgError:
		msg, err := proto.DecodeString(raw)
		if err != nil {
			return nil, n, fmt.Errorf("dataplane: decoding peer error: %w", err)
		}
		return nil, n, fmt.Errorf("dataplane: peer error: %s", msg)
	}
	return nil, n, fmt.Errorf("dataplane: unexpected peer message %v", t)
}
