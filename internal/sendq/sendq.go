// Package sendq is the outbound queue in front of each end of a
// manager–worker link: many goroutines produce frames, one sender
// goroutine writes them. The sender takes everything queued in one swap,
// encodes it into the connection's pending buffer and flushes once, so a
// burst costs one write syscall (DESIGN.md §13).
//
// A queue reserves nothing: it is a mutex-guarded slice plus a one-slot
// wake channel, and its memory follows what has been queued, not the
// bound. The bound is enforced per push, two ways: TryPush refuses at it
// (the manager drops such a worker), Push waits at it until the sender
// takes a batch or the caller stops (a worker's producers).
//
// The wake protocol: a push into an empty queue leaves a token in the
// one-slot channel, and Drain consumes a token before it takes the
// queue. So whenever items are queued, a token is waiting or a Drain
// that will take them is running — no wakeup is lost. A token can
// outlive the items it announced (a batch taken after the token was
// left); Drain then finds the queue empty and waits again, so an empty
// batch is never handed on.
package sendq

import (
	"runtime"
	"sync"
)

// Queue is a bounded multi-producer, single-consumer FIFO. Any number of
// goroutines may push; only one may Drain or Take.
type Queue[T any] struct {
	mu    sync.Mutex
	items []T
	limit int
	// room, made by a Push that finds the queue full, is closed by the
	// next take: every producer waiting on it retries.
	room chan struct{}
	wake chan struct{}
	// spare is the consumer's last batch, cleared and kept for the next
	// take to queue into: two arrays alternate, and neither holds a
	// reference to a frame that has been sent.
	spare []T
}

// New returns an empty queue that holds at most limit items.
func New[T any](limit int) *Queue[T] {
	return &Queue[T]{limit: limit, wake: make(chan struct{}, 1)}
}

// Limit is the most items the queue holds.
func (q *Queue[T]) Limit() int { return q.limit }

// TryPush queues v unless the queue is full, and reports whether it did.
func (q *Queue[T]) TryPush(v T) bool {
	q.mu.Lock()
	if len(q.items) >= q.limit {
		q.mu.Unlock()
		return false
	}
	q.append(v)
	return true
}

// Push queues v, waiting while the queue is full, and reports whether it
// did. Once stop is closed it queues nothing: a closed stop is checked
// before anything else, not raced against free room.
func (q *Queue[T]) Push(v T, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		q.mu.Lock()
		if len(q.items) < q.limit {
			q.append(v)
			return true
		}
		if q.room == nil {
			q.room = make(chan struct{})
		}
		room := q.room
		q.mu.Unlock()
		select {
		case <-room:
		case <-stop:
			return false
		}
	}
}

// append adds v with q.mu held, releases it, and leaves a wake token if
// the queue was empty.
func (q *Queue[T]) append(v T) {
	first := len(q.items) == 0
	q.items = append(q.items, v)
	q.mu.Unlock()
	if first {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// Take empties the queue and returns what it held, oldest first; the
// slice is the caller's. Producers waiting for room retry.
func (q *Queue[T]) Take() []T {
	q.mu.Lock()
	batch := q.items
	q.items, q.spare = q.spare, nil
	if q.room != nil {
		close(q.room)
		q.room = nil
	}
	q.mu.Unlock()
	return batch
}

// Drain waits until something is queued or stop is closed, then hands
// each queued item to put, in order, and keeps taking until the queue is
// empty. Before it reports the queue empty it yields the processor once,
// so producers on the same core can top the batch off and one flush
// carries the whole burst. It returns how many items put took — zero
// only when stop was closed — and put's first error, after which the
// rest of that batch is dropped.
func (q *Queue[T]) Drain(stop <-chan struct{}, put func(T) error) (int, error) {
	n := 0
	for n == 0 {
		select {
		case <-q.wake:
		case <-stop:
			return 0, nil
		}
		yielded := false
		for {
			batch := q.Take()
			for _, v := range batch {
				if err := put(v); err != nil {
					q.recycle(batch)
					return n, err
				}
				n++
			}
			q.recycle(batch)
			if len(batch) > 0 {
				continue
			}
			if n == 0 || yielded {
				break
			}
			yielded = true
			runtime.Gosched()
		}
	}
	return n, nil
}

// recycle clears a drained batch and keeps its array for the next Take.
func (q *Queue[T]) recycle(batch []T) {
	clear(batch)
	q.spare = batch[:0]
}
