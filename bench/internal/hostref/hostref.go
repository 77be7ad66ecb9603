// Package hostref measures how fast the host runs this process from
// moment to moment, so that a timing can be stated at the reference
// host's speed instead of at whatever speed a shared machine offered
// while the run happened to be on it.
//
// The benchmark's hosts are a few virtual CPUs of a shared machine.
// What the neighbours do to the caches, the memory system and the
// sibling hardware threads changes the speed of the same code by a
// fifth from one minute to the next, and by up to half in a bad
// quarter of an hour, with no sign of it in the guest but the speed
// itself. A Sampler therefore runs a small fixed kernel every 25 ms on
// a thread of its own, beside the workload, and records the CPU time
// each repetition took: a reading of the host taken under the very
// conditions the workload runs in. Measured on the reference host over
// 25 minutes in which that reading moved between 0.91 and 1.30 of its
// median, dividing a run's epoch time by it took the spread of ten
// runs from 12 % to 1.5 % (invoke_burst), 23 % to 4 % (context_cold),
// 32 % to 5 % (data_fanout), 24 % to 15 % (context_reload) and 29 % to
// 10 % (sim_replay).
package hostref

import (
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	// NominalNs is the CPU time of one kernel repetition on the
	// reference host (bench/README.md) when its neighbours are quiet. A
	// speed is a repetition's CPU time over this, so 1 is the reference
	// host at its best and 1.25 a host that takes a quarter longer.
	NominalNs = 2.0e6

	// gap is the pause between two repetitions: the sampler keeps a
	// virtual CPU busy for 2 ms in every 27.
	gap = 25 * time.Millisecond

	// minWindow is the fewest samples a speed is taken over (a second's
	// worth): a shorter interval is widened on both sides.
	minWindow = 40

	// maxSamples bounds a sampler's memory; at one sample per 27 ms it
	// is half an hour, ten times the longest run.
	maxSamples = 1 << 16

	tableBits = 16
	nKeys     = 24576
)

// kernel is the reference work's state: an open-addressing hash table,
// the keys put into it and an order to look them up in, 800 KB in all —
// inside a core's second-level cache on the reference host, so that the
// kernel reads the core and its caches the way the engine's code does,
// not the DRAM behind them.
type kernel struct {
	table [1 << tableBits]uint64
	keys  [nKeys]uint64
	next  [nKeys]uint32
}

func slot(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> (64 - tableBits) }

// run is one repetition: fill the table with nKeys pseudo-random keys,
// look all of them up in a scattered order, sort them. It allocates
// nothing, so it neither triggers the collector nor is charged with
// assisting it, and the same seed does the same work.
func (k *kernel) run(seed uint64) uint64 {
	clear(k.table[:])
	x := seed
	for i := range k.keys {
		x = x*6364136223846793005 + 1442695040888963407
		key := x>>11 | 1
		k.keys[i] = key
		h := slot(key)
		for k.table[h] != 0 {
			h = (h + 1) & (1<<tableBits - 1)
		}
		k.table[h] = key
		k.next[i] = uint32(x>>40) % nKeys
	}
	var sum uint64
	j := uint32(0)
	for range k.keys {
		key := k.keys[j]
		h := slot(key)
		for k.table[h] != key {
			h = (h + 1) & (1<<tableBits - 1)
		}
		sum += h
		j = k.next[j]
	}
	slices.Sort(k.keys[:])
	return sum + k.keys[nKeys/2]
}

// threadCPUNs is the calling thread's CPU time. Unlike the wall clock
// it leaves out the time the thread was not running — preempted by
// another thread, or by the host, which the benchmark accounts for
// separately as steal.
func threadCPUNs() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// Sampler is a running series of kernel timings.
type Sampler struct {
	cpu  []float64    // CPU nanoseconds per repetition; the sampler writes cpu[n], then publishes n+1
	n    atomic.Int64 // samples published
	used atomic.Int64 // CPU nanoseconds the sampler itself has consumed
	sink uint64
	stop chan struct{}
	done chan struct{}
}

// Start begins sampling on a goroutine locked to a thread of its own.
func Start() *Sampler {
	s := &Sampler{cpu: make([]float64, maxSamples), stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	runtime.LockOSThread() // thread CPU time means nothing on a goroutine that changes threads
	defer runtime.UnlockOSThread()
	k := new(kernel)
	tick := time.NewTimer(0)
	defer tick.Stop()
	for i := int64(0); i < maxSamples; i++ {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		c0 := threadCPUNs()
		s.sink += k.run(uint64(i + 1))
		d := threadCPUNs() - c0
		s.cpu[i] = float64(d)
		s.n.Store(i + 1)
		s.used.Add(d)
		tick.Reset(gap)
	}
}

// Stop ends the sampling and waits for the goroutine.
func (s *Sampler) Stop() {
	close(s.stop)
	<-s.done
}

// Samples is the number of samples taken so far. A caller notes it at
// the start and at the end of an interval and hands both to Speed.
func (s *Sampler) Samples() int { return int(s.n.Load()) }

// UsedNs is the CPU time the sampler itself has consumed so far, which
// a caller takes off the process's CPU time.
func (s *Sampler) UsedNs() int64 { return s.used.Load() }

// Speed is how slow the host ran while samples [from, to) were taken:
// their median CPU time over NominalNs. An interval of fewer than
// minWindow samples is widened evenly on both sides, as far as samples
// exist; with no samples at all the speed is 1.
func (s *Sampler) Speed(from, to int) float64 {
	n := s.Samples()
	from, to = max(from, 0), min(to, n)
	if short := minWindow - (to - from); short > 0 {
		from, to = from-(short+1)/2, to+short/2
		if from < 0 {
			from, to = 0, to-from
		}
		if to > n {
			from, to = from-(to-n), n
		}
		from = max(from, 0)
	}
	if from >= to {
		return 1
	}
	w := slices.Clone(s.cpu[from:to])
	slices.Sort(w)
	mid := len(w) / 2
	med := w[mid]
	if len(w)%2 == 0 {
		med = (w[mid-1] + w[mid]) / 2
	}
	return med / NominalNs
}
