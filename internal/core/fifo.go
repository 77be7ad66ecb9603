package core

// FIFO is a first-in-first-out queue in one slice: buf[head:] is
// waiting, buf[:head] has been served and is zero. A queue that is
// served as fast as it is filled but never quite empties must not grow
// with the number served, so Push moves the waiting part down rather
// than reallocate once at least half the slice is served. The zero
// value is an empty queue; it is not safe for concurrent use.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports how many items are waiting.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Cap reports the capacity of the queue's backing slice.
func (q *FIFO[T]) Cap() int { return cap(q.buf) }

// Push appends v to the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= (len(q.buf)+1)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest item; ok is false, and v the zero
// value, when the queue is empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero // the queue must not keep what v points to alive
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
