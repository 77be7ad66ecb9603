package loadgen

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/core"
)

func noCPU() stats.Reading { return stats.Reading{} }

func TestScheduleDue(t *testing.T) {
	ms := int64(time.Millisecond)
	s := Schedule{Rate: 20000, Tick: time.Millisecond}
	for _, c := range []struct {
		seq  int
		want int64
	}{{0, 0}, {19, 0}, {20, ms}, {39, ms}, {40, 2 * ms}, {200000, 10000 * ms}} {
		if got := s.Due(c.seq); got != c.want {
			t.Errorf("20000/s: Due(%d) = %d, want %d", c.seq, got, c.want)
		}
	}
	// A rate below one per tick keeps its spacing: 100/s is one
	// operation every tenth tick, not one per tick.
	slow := Schedule{Rate: 100, Tick: time.Millisecond}
	if got := slow.Due(3); got != 30*ms {
		t.Errorf("100/s: Due(3) = %d, want %d", got, 30*ms)
	}
	// A rate that does not divide the tick keeps its long-run average.
	odd := Schedule{Rate: 1500, Tick: time.Millisecond}
	if got := odd.Due(3000); got != 2000*ms {
		t.Errorf("1500/s: Due(3000) = %d, want %d", got, 2000*ms)
	}
	if got := odd.Due(2); got != ms {
		t.Errorf("1500/s: Due(2) = %d, want %d (1.33 ms moved back to its tick)", got, ms)
	}
}

func TestClockSleepUntil(t *testing.T) {
	c := NewClock()
	target := c.Now() + int64(2*time.Millisecond)
	if woke := c.SleepUntil(target); woke < target {
		t.Errorf("SleepUntil returned at %d, before its target %d", woke, target)
	}
	if woke := c.SleepUntil(0); woke <= 0 {
		t.Errorf("SleepUntil of a past instant returned %d", woke)
	}
}

func TestI64ListAcrossChunks(t *testing.T) {
	var l I64List
	n := 2*chunkLen + 17
	for i := 0; i < n; i++ {
		l.Append(int64(i))
	}
	flat := l.Flatten()
	if len(flat) != n {
		t.Fatalf("flattened %d values, want %d", len(flat), n)
	}
	for i, v := range flat {
		if v != int64(i) {
			t.Fatalf("element %d is %d", i, v)
		}
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger(1000)
	for i := 0; i < chunkLen+5; i++ {
		if seq := l.Submit(int64(i) * 10); seq != i {
			t.Fatalf("Submit returned sequence %d, want %d", seq, i)
		}
	}
	if l.Next() != chunkLen+5 || l.ExpectID(7) != 1007 {
		t.Errorf("Next %d, ExpectID(7) %d", l.Next(), l.ExpectID(7))
	}
	seq, from, ok := l.From(1000 + chunkLen + 2)
	if !ok || seq != chunkLen+2 || from != int64(chunkLen+2)*10 {
		t.Errorf("From = %d, %d, %v", seq, from, ok)
	}
	if _, _, ok := l.From(999); ok {
		t.Error("an ID below the base was accepted")
	}
	if _, _, ok := l.From(1000 + 3*chunkLen); ok {
		t.Error("an ID in a chunk never written was accepted")
	}
}

// collect runs a collector over results already delivered, the way a
// workload does: Finish with the number submitted, then Run.
func collect(c *Collector, results chan core.Result, submitted int) {
	c.Finish(submitted)
	c.Run(results)
}

// TestStalledCollectorLengthensLatencies is the open loop's accounting
// rule: ten operations are due 1 ms apart and the system answers all of
// them at once, but the collector only gets to them 20 ms after the
// first was due. Every sample must be there, and each must count from
// its due time — so each includes the collector's stall.
func TestStalledCollectorLengthensLatencies(t *testing.T) {
	clock := NewClock()
	ledger := NewLedger(1)
	sched := Schedule{Rate: 1000, Tick: time.Millisecond}
	const n = 10
	results := make(chan core.Result, n)
	start := clock.Now()
	for seq := 0; seq < n; seq++ {
		ledger.Submit(start + sched.Due(seq))
		results <- core.Result{ID: ledger.ExpectID(seq), Ok: true}
	}
	stall := int64(20 * time.Millisecond)
	clock.SleepUntil(start + stall)

	c := NewCollector(clock, ledger, stats.NewEpochs(n, start, noCPU))
	collect(c, results, n)
	if c.Completed != n || c.Failed != 0 || len(c.Lat.Flatten()) != n {
		t.Fatalf("completed %d, failed %d, %d latencies; want %d, 0, %d: a slow collector must not drop samples", c.Completed, c.Failed, len(c.Lat.Flatten()), n, n)
	}
	for seq, lat := range c.Lat.Flatten() {
		if want := stall - sched.Due(seq); lat < want {
			t.Errorf("op %d: latency %d ns is shorter than the %d ns between its due time and the end of the stall", seq, lat, want)
		}
	}
	if c.Epochs.Closed() != 1 {
		t.Errorf("%d epochs closed, want 1", c.Epochs.Closed())
	}
}

func TestCollectorCountsEveryKindOfFailure(t *testing.T) {
	clock := NewClock()
	ledger := NewLedger(50)
	results := make(chan core.Result, 8)
	for seq := 0; seq < 4; seq++ {
		ledger.Submit(clock.Now())
	}
	results <- core.Result{ID: 50, Ok: true}                   // passes
	results <- core.Result{ID: 51, Ok: false, Err: "boom"}     // engine failure
	results <- core.Result{ID: 52, Ok: true, Value: []byte{1}} // fails its output check
	results <- core.Result{ID: 7, Ok: true}                    // an ID never submitted
	c := NewCollector(clock, ledger, stats.NewEpochs(2, clock.Now(), noCPU))
	seen := 0
	c.Check = func(seq int, res *core.Result) error {
		if len(res.Value) != 0 {
			return errors.New("wrong payload")
		}
		return nil
	}
	c.OnResult = func(int, *core.Result, int64, int64) { seen++ }
	collect(c, results, 4)
	if c.Completed != 4 || c.Failed != 3 {
		t.Errorf("completed %d, failed %d, want 4, 3", c.Completed, c.Failed)
	}
	if !strings.Contains(c.FirstErr, "boom") {
		t.Errorf("first error %q does not name the first failure", c.FirstErr)
	}
	if n := len(c.Lat.Flatten()); n != 3 || seen != 3 {
		t.Errorf("%d latencies, %d callbacks, want 3 each: failed operations keep their sample, unknown IDs have none", n, seen)
	}
}

// TestCollectorGivesUpOnALostOperation: one of three operations never
// returns. The collector must stop after its idle timeout and say so;
// the caller then counts the missing operation as failed.
func TestCollectorGivesUpOnALostOperation(t *testing.T) {
	clock := NewClock()
	ledger := NewLedger(1)
	results := make(chan core.Result, 3)
	for seq := 0; seq < 3; seq++ {
		ledger.Submit(clock.Now())
	}
	results <- core.Result{ID: 1, Ok: true}
	results <- core.Result{ID: 3, Ok: true}
	c := NewCollector(clock, ledger, stats.NewEpochs(3, clock.Now(), noCPU))
	c.IdleTimeout = 40 * time.Millisecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		collect(c, results, 3)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the collector is still waiting for an operation that will never return")
	}
	if !c.Stalled || c.Completed != 2 {
		t.Errorf("stalled %v, completed %d, want true, 2", c.Stalled, c.Completed)
	}
	if c.FirstErr == "" {
		t.Error("a stalled collector must leave an error message")
	}
}
