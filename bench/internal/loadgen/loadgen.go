// Package loadgen is the benchmark's load generator: one submitter
// goroutine and one collector goroutine around a system under test
// that accepts submissions and delivers core.Results on a channel.
//
// The pieces are a monotonic Clock, a Ledger matching each result to
// the instant its latency counts from (the submit time in a closed
// loop, the due time in an open loop), a due-time Schedule for the
// open loop, and the Collector loop that stamps, verifies and counts
// every result. A slow collector lengthens the latencies it records;
// it never drops a sample, and an operation that fails or never
// returns is counted as failed, never silently removed from a
// denominator.
package loadgen

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/core"
)

// Clock reads monotonic nanoseconds since its creation.
type Clock struct{ origin time.Time }

// NewClock starts a clock now.
func NewClock() Clock { return Clock{origin: time.Now()} }

// Now is the nanoseconds elapsed since the clock was created.
func (c Clock) Now() int64 { return int64(time.Since(c.origin)) }

// SleepUntil blocks until the clock reads at least ns and returns the
// reading it woke at. It blocks the thread in nanosleep(2): time.Sleep
// parks the goroutine on the runtime's timers, which an idle process
// services from epoll_wait with a timeout rounded up to a millisecond.
// Measured on the reference host, a 1 ms tick then runs 0.56 ms late at
// the median, against 0.11 ms for nanosleep — and the open loop's
// latency, which counts from the due time, carries that lateness.
func (c Clock) SleepUntil(ns int64) int64 {
	for {
		now := c.Now()
		if now >= ns {
			return now
		}
		ts := syscall.NsecToTimespec(ns - now)
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up goes round the loop again
	}
}

const chunkLen = 1 << 15

// I64List is an append-only list of int64 in fixed-size chunks, so
// the bytes the generator itself allocates per recorded operation are
// constant (a doubling slice would make alloc_kb_per_op depend on
// where the run happened to stop). One goroutine appends; reading is
// for after it has finished.
type I64List struct {
	chunks [][]int64
	n      int
}

// Append adds v.
func (l *I64List) Append(v int64) {
	if l.n%chunkLen == 0 {
		l.chunks = append(l.chunks, make([]int64, 0, chunkLen))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, v)
	l.n++
}

// Len is the number of values appended.
func (l *I64List) Len() int { return l.n }

// Flatten copies the values into one slice.
func (l *I64List) Flatten() []int64 {
	out := make([]int64, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

const ledgerChunks = 1 << 13

// Ledger records, per submission sequence number, the instant an
// operation's latency counts from, and maps a result's spec ID back to
// its sequence number. The submitter is the only goroutine submitting
// to the system, so spec IDs are consecutive: seq = id - base. The
// submitter writes an entry before it submits; the collector reads it
// after the result crossed the system's own synchronisation, which
// orders the two.
type Ledger struct {
	base   int64
	chunks [ledgerChunks]atomic.Pointer[[chunkLen]int64]
	next   int // submitter-owned: next sequence number
}

// NewLedger starts a ledger whose sequence 0 will carry spec ID base.
func NewLedger(base int64) *Ledger { return &Ledger{base: base} }

// Next is the sequence number the next Submit will record.
func (l *Ledger) Next() int { return l.next }

// ExpectID is the spec ID the system must assign to sequence seq.
func (l *Ledger) ExpectID(seq int) int64 { return l.base + int64(seq) }

// Submit records fromNs as the latency origin of the next sequence
// number and returns that number. Call it before handing the
// operation to the system.
func (l *Ledger) Submit(fromNs int64) int {
	seq := l.next
	ci, off := seq/chunkLen, seq%chunkLen
	if ci >= ledgerChunks {
		panic("loadgen: ledger capacity exceeded")
	}
	c := l.chunks[ci].Load()
	if c == nil {
		c = new([chunkLen]int64)
		l.chunks[ci].Store(c)
	}
	c[off] = fromNs
	l.next++
	return seq
}

// From returns the latency origin of the result with the given spec
// ID, or ok=false for an ID the ledger never issued.
func (l *Ledger) From(id int64) (seq int, fromNs int64, ok bool) {
	s := id - l.base
	if s < 0 || s >= int64(ledgerChunks)*chunkLen {
		return 0, 0, false
	}
	c := l.chunks[s/chunkLen].Load()
	if c == nil {
		return 0, 0, false
	}
	return int(s), c[s%chunkLen], true
}

// Schedule is an open-loop arrival schedule: Rate operations per
// second, released in groups at multiples of Tick. Operation seq is due
// at Due(seq) after the schedule's start, whether or not the generator
// or the system kept up; latency counted from that instant includes the
// wait a stall imposes on later operations.
type Schedule struct {
	Rate int
	Tick time.Duration
}

// Due is operation seq's release time in nanoseconds after the start:
// its evenly spaced arrival time, moved back to the tick it falls in.
func (s Schedule) Due(seq int) int64 {
	t := int64(seq) * int64(time.Second) / int64(s.Rate)
	return t - t%int64(s.Tick)
}

// Collector is the collector goroutine's state. Configure the exported
// fields, call Run on its own goroutine, and read the results after
// Run returns.
type Collector struct {
	Clock  Clock
	Ledger *Ledger
	// Epochs closes an epoch every Epochs.Size completions.
	Epochs *stats.Epochs
	// Check verifies one result's payload; a non-nil error fails the
	// operation. Nil accepts every Ok result.
	Check func(seq int, res *core.Result) error
	// OnResult runs after a result is recorded: release a window
	// token, signal a burst barrier, hand a handle to the submitter.
	OnResult func(seq int, res *core.Result, fromNs, nowNs int64)
	// IdleTimeout ends the run when no result arrives for this long.
	IdleTimeout time.Duration

	// Lat holds one latency (ns) per completed operation, successes and
	// failures alike.
	Lat I64List
	// Completed and Failed count results seen. Stalled reports that Run
	// gave up waiting: submissions beyond Completed never returned.
	Completed int
	Failed    int
	Stalled   bool
	FirstErr  string

	final atomic.Int64 // total submissions once the submitter is done; -1 before
	wake  chan struct{}
}

// NewCollector builds a collector; expect is set later by Finish.
func NewCollector(clock Clock, ledger *Ledger, epochs *stats.Epochs) *Collector {
	c := &Collector{Clock: clock, Ledger: ledger, Epochs: epochs, IdleTimeout: 60 * time.Second}
	c.final.Store(-1)
	c.wake = make(chan struct{}, 1)
	return c
}

// Finish tells the collector the submitter is done after total
// submissions; Run returns once that many results arrived.
func (c *Collector) Finish(total int) {
	c.final.Store(int64(total))
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *Collector) fail(msg string) {
	c.Failed++
	if c.FirstErr == "" {
		c.FirstErr = msg
	}
}

// Run consumes results until Finish's total is reached, or until no
// result has arrived for IdleTimeout; it then sets Stalled and the
// caller counts every operation still outstanding as failed.
func (c *Collector) Run(results <-chan core.Result) {
	// A coarse ticker instead of a per-result timer reset: the collector
	// handles hundreds of thousands of results per second.
	const checks = 4
	tick := time.NewTicker(c.IdleTimeout / checks)
	defer tick.Stop()
	last, still := 0, 0
	for {
		if f := c.final.Load(); f >= 0 && int64(c.Completed) >= f {
			return
		}
		select {
		case res := <-results:
			c.record(&res)
		case <-c.wake:
		case <-tick.C:
			if c.Completed != last {
				last, still = c.Completed, 0
				continue
			}
			if still++; still >= checks {
				c.Stalled = true
				if c.FirstErr == "" {
					c.FirstErr = fmt.Sprintf("no result for %v with operations outstanding", c.IdleTimeout)
				}
				return
			}
		}
	}
}

func (c *Collector) record(res *core.Result) {
	now := c.Clock.Now()
	seq, from, ok := c.Ledger.From(res.ID)
	c.Completed++
	if !ok {
		c.fail(fmt.Sprintf("result for unknown spec id %d", res.ID))
		return
	}
	c.Lat.Append(now - from)
	c.Epochs.Done(now)
	switch {
	case !res.Ok:
		c.fail(fmt.Sprintf("op %d (spec %d) failed: %s", seq, res.ID, res.Err))
	case c.Check != nil:
		if err := c.Check(seq, res); err != nil {
			c.fail(fmt.Sprintf("op %d (spec %d): %v", seq, res.ID, err))
		}
	}
	if c.OnResult != nil {
		c.OnResult(seq, res, from, now)
	}
}
