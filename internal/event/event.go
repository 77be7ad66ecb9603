// Package event is a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, a seeded RNG, and a
// processor-sharing resource model. The scale simulator (internal/sim)
// uses it to replay the paper's experiments — 100k invocations over
// 150 workers — in milliseconds of real time while preserving the
// contention dynamics (shared filesystem, manager link, worker NICs)
// that shape the results.
package event

import (
	"math"
)

// Time is simulated seconds since the start of the run.
type Time = float64

type event struct {
	at  Time
	seq int64 // tie-breaker for determinism
	fn  func()
}

// eventHeap is a binary min-heap of events stored by value. The sift
// routines are hand-rolled rather than container/heap so that pushing
// an event never boxes it through an interface: one slice slot per
// pending event is the whole footprint.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	// Sift up.
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q)
	top := q[0]
	q[0] = q[n-1]
	q[n-1] = event{} // release the closure for GC
	q = q[:n-1]
	*h = q
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		child := l
		if r := l + 1; r < len(q) && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// Sim is a discrete-event simulator. Not safe for concurrent use: the
// entire simulation runs single-threaded for determinism.
type Sim struct {
	now   Time
	queue eventHeap
	seq   int64
	// running is the sequence number of the event being run: a handler
	// bound once and scheduled many times tells its latest scheduling
	// from the stale ones by it.
	running int64
	events  int64
	// MaxEvents aborts the run (panic) if exceeded — a backstop against
	// runaway event loops. Zero means no limit.
	MaxEvents int64
}

// NewSim creates a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Sim) Events() int64 { return s.events }

// At schedules fn at absolute time t (clamped to now) and returns the
// sequence number it gave the event, which orders events due at one
// time and is Sim.running while fn runs.
func (s *Sim) At(t Time, fn func()) int64 {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
	return s.seq
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue drains, returning the final
// time.
func (s *Sim) Run() Time {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		s.now, s.running = e.at, e.seq
		s.events++
		if s.MaxEvents > 0 && s.events > s.MaxEvents {
			panic("event: MaxEvents exceeded — runaway event loop")
		}
		e.fn()
	}
	return s.now
}

// RNG is a small deterministic random source (splitmix64 core).
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed ^ 0x9E3779B97F4A7C15} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate (Box-Muller).
func (r *RNG) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	return mu + sigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(Normal(mu, sigma)) scaled so the result has
// the given median: median * exp(sigma * N(0,1)).
func (r *RNG) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(r.Normal(0, sigma))
}
