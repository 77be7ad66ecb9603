package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
)

// The outbound queue, the only way frames reach a manager–worker link
// after its handshake (DESIGN.md §13). A producer encodes its frame into
// the queue; one writer, Drain, takes everything queued in one swap and
// writes it with no queue lock held. The bound counts frames and reserves
// nothing. Wake protocol: a frame queued into an empty queue leaves a
// token in the one-slot wake channel, and Drain consumes a token before it
// takes, so queued frames always have a token waiting or a Drain running.

// ErrQueueFull is TryQueue's refusal: the queue holds its bound.
var ErrQueueFull = errors.New("proto: outbound queue full")

// ErrStopped is Queue's answer once its stop channel is closed.
var ErrStopped = errors.New("proto: stopped before queueing")

// maxPending bounds the batch a connection keeps for reuse once written,
// so one burst does not pin its size for the life of the link.
const maxPending = 256 << 10

// outbound is a batch of encoded frames, in order, with its bulk frames'
// payloads by reference, each at the offset in buf where its header ends.
type outbound struct {
	buf    bytes.Buffer
	bulks  []bulkPayload
	frames int
}

type bulkPayload struct {
	at   int
	data []byte
}

// writeTo writes the batch to w in order, then empties it, keeping no
// payload.
func (o *outbound) writeTo(w io.Writer) error {
	b, from := o.buf.Bytes(), 0
	var err error
	write := func(p []byte) {
		if err == nil && len(p) > 0 {
			_, err = w.Write(p)
		}
	}
	for _, p := range o.bulks {
		write(b[from:p.at])
		write(p.data)
		from = p.at
	}
	write(b[from:])
	o.buf.Reset()
	clear(o.bulks)
	o.bulks, o.frames = o.bulks[:0], 0
	return err
}

// SetQueueLimit bounds the outbound queue to n frames for TryQueue,
// TryQueueBulk and Queue; until then it has no bound. Call it before the
// connection is shared.
func (c *Conn) SetQueueLimit(n int) { c.limit = n }

// TryQueue encodes v as a frame of type t into the outbound queue, unless
// the queue is full: then it returns an error wrapping ErrQueueFull.
func (c *Conn) TryQueue(t MsgType, v any) error { return c.TryQueueBulk(t, v, nil) }

// TryQueueBulk queues a bulk frame like TryQueue: the header hdr, then
// payload, which is kept by reference until the frame is written.
func (c *Conn) TryQueueBulk(t MsgType, hdr any, payload []byte) error {
	c.qmu.Lock()
	if limit := c.limit; limit > 0 && c.pend.frames >= limit {
		c.qmu.Unlock()
		return fmt.Errorf("%w (%d frames)", ErrQueueFull, limit)
	}
	return c.addLocked(t, hdr, payload)
}

// Queue encodes v as a frame of type t into the outbound queue, waiting
// while the queue is full. Once stop is closed it queues nothing and
// returns ErrStopped: a closed stop is checked first, not raced against
// free room.
func (c *Conn) Queue(t MsgType, v any, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return ErrStopped
		default:
		}
		c.qmu.Lock()
		if c.limit <= 0 || c.pend.frames < c.limit {
			return c.addLocked(t, v, nil)
		}
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.qmu.Unlock()
		select {
		case <-room:
		case <-stop:
			return ErrStopped
		}
	}
}

// Buffer queues v like TryQueue, for a caller that writes the queue
// itself: the peer sees it after the next Flush, Send or SendBulk.
func (c *Conn) Buffer(t MsgType, v any) error { return c.TryQueue(t, v) }

// addLocked encodes one frame, payload after v's body, into the queue
// with c.qmu held, releases it, and leaves a wake token if the queue was
// empty. An encoding error queues nothing.
func (c *Conn) addLocked(t MsgType, v any, payload []byte) error {
	o := &c.pend
	start := o.buf.Len()
	err := encodeFrame(&o.buf, t, v, len(payload))
	if err != nil {
		o.buf.Truncate(start)
	} else {
		o.frames++
		if len(payload) > 0 {
			o.bulks = append(o.bulks, bulkPayload{at: o.buf.Len(), data: payload})
		}
	}
	first := err == nil && o.frames == 1
	c.qmu.Unlock()
	if first {
		select {
		case c.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return err
}

// Flush writes every frame queued since the last write.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.flushLocked()
	return err
}

// flushLocked takes everything queued and writes it, with c.wmu held and
// c.qmu held for the swap alone; producers waiting for room retry. It
// returns how many frames it took.
func (c *Conn) flushLocked() (int, error) {
	c.qmu.Lock()
	n := c.pend.frames
	if n > 0 {
		c.pend, c.spare = c.spare, c.pend
		if c.room != nil {
			close(c.room)
			c.room = nil
		}
	}
	c.qmu.Unlock()
	if n == 0 {
		return 0, nil
	}
	err := c.spare.writeTo(c.rw)
	if c.spare.buf.Cap() > maxPending {
		c.spare = outbound{}
	}
	if err != nil {
		return n, fmt.Errorf("proto: flushing frames: %w", err)
	}
	return n, nil
}

// Drain is the link's one writer. It waits for a wake token or for stop,
// lets producers top the batch off, and writes everything queued; a token
// whose frames a Flush took makes it wait again. It returns how many
// frames it wrote, zero only when stop was closed, and the write's error.
func (c *Conn) Drain(stop <-chan struct{}) (int, error) {
	for {
		select {
		case <-c.wake:
		case <-stop:
			return 0, nil
		}
		c.topOff()
		c.wmu.Lock()
		n, err := c.flushLocked()
		c.wmu.Unlock()
		if n > 0 || err != nil {
			return n, err
		}
	}
}

// topOff yields the processor until two yields in a row add no frame,
// so producers on the same core top the batch off and one write carries
// the whole burst. It stops early once the batch holds maxPending bytes
// or half the bound, which a refusing producer must not meet meanwhile.
func (c *Conn) topOff() {
	for n, quiet := -1, 0; ; runtime.Gosched() {
		c.qmu.Lock()
		m := c.pend.frames
		big := c.pend.buf.Len() >= maxPending || c.limit > 0 && 2*m >= c.limit
		c.qmu.Unlock()
		if m == n {
			quiet++
		} else {
			n, quiet = m, 0
		}
		if big || quiet == 2 {
			return
		}
	}
}
