package manager

// Tests for the lock-free MPSC submit intake: the Treiber-stack
// hand-off between submitters and a shard's wake loop must lose
// nothing, preserve per-producer submission order, and behave exactly
// like the mutex-guarded queue it replaced. Run with -race (make
// check does) — the interleavings are the point.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shardplane"
)

// intakeItem identifies one pushed spec for the cross-check: producer
// p's k-th submission.
type intakeItem struct{ p, k int }

// mutexIntake is the reference implementation the lock-free intake is
// cross-checked against: the pre-PR mutex-guarded append. Its
// guarantee — every item appears exactly once, and one producer's
// items drain in the order that producer pushed them — is the
// contract the shard's Intake must preserve.
type mutexIntake struct {
	mu sync.Mutex
	q  []intakeItem
}

func (m *mutexIntake) push(it intakeItem) {
	m.mu.Lock()
	m.q = append(m.q, it)
	m.mu.Unlock()
}

func (m *mutexIntake) drain() []intakeItem {
	m.mu.Lock()
	out := m.q
	m.q = nil
	m.mu.Unlock()
	return out
}

// runIntakeWorkload pushes producers×perProducer items through push
// while a concurrent drainer calls drain until everything arrived,
// returning the drained items in drain order.
func runIntakeWorkload(t *testing.T, producers, perProducer int, push func(intakeItem), drain func() []intakeItem) []intakeItem {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				push(intakeItem{p: p, k: k})
			}
		}(p)
	}
	var got []intakeItem
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < producers*perProducer {
			got = append(got, drain()...)
			if time.Now().After(deadline) {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if len(got) != producers*perProducer {
		t.Fatalf("drained %d of %d items", len(got), producers*perProducer)
	}
	return got
}

// bareShard is a shard with queues and a scheduler but no workers,
// view or manager behind it.
func bareShard() *shard {
	s := &shard{m: &Manager{}}
	s.sched = shardplane.NewPlane[taskSpec, *core.InvocationSpec](1, 0).Attach(0, nil, &s.mu, s)
	return s
}

// perProducerOrder projects the drain order onto one producer's items.
func perProducerOrder(items []intakeItem, producers int) [][]int {
	seqs := make([][]int, producers)
	for _, it := range items {
		seqs[it.p] = append(seqs[it.p], it.k)
	}
	return seqs
}

// TestIntakeConcurrentSubmitDrain floods one shard's intake stack from
// many producers while a concurrent consumer drains it, and
// cross-checks the result against the mutex reference: same item
// multiset, same per-producer FIFO order.
func TestIntakeConcurrentSubmitDrain(t *testing.T) {
	const producers, perProducer = 8, 500

	// Lock-free intake under test, on a bare shard (Intake touches only
	// queue state).
	s := bareShard()
	push := func(it intakeItem) {
		n := intakeNodePool.Get().(*intakeNode)
		n.spec.IsTask = false
		n.spec.Inv = queuedInv(&core.InvocationSpec{
			ID:      int64(it.p*perProducer + it.k),
			Library: fmt.Sprintf("lib%d", it.p),
		})
		s.pushIntake(n)
	}
	drain := func() []intakeItem {
		s.mu.Lock()
		s.Intake()
		var out []intakeItem
		for p := 0; p < producers; p++ {
			for _, pi := range s.sched.DrainLib(fmt.Sprintf("lib%d", p)) {
				id := int(pi.Spec.ID)
				out = append(out, intakeItem{p: id / perProducer, k: id % perProducer})
			}
		}
		s.mu.Unlock()
		return out
	}
	got := runIntakeWorkload(t, producers, perProducer, push, drain)

	// Reference run: same workload through the mutex version.
	ref := &mutexIntake{}
	want := runIntakeWorkload(t, producers, perProducer, ref.push, ref.drain)

	gotSeqs := perProducerOrder(got, producers)
	wantSeqs := perProducerOrder(want, producers)
	for p := 0; p < producers; p++ {
		if len(gotSeqs[p]) != perProducer || len(wantSeqs[p]) != perProducer {
			t.Fatalf("producer %d: drained %d items lock-free, %d mutex (want %d)", p, len(gotSeqs[p]), len(wantSeqs[p]), perProducer)
		}
		for k := 0; k < perProducer; k++ {
			if gotSeqs[p][k] != k {
				t.Fatalf("producer %d: lock-free intake reordered item %d to position %d", p, gotSeqs[p][k], k)
			}
			if wantSeqs[p][k] != k {
				t.Fatalf("producer %d: mutex reference reordered item %d to position %d", p, wantSeqs[p][k], k)
			}
		}
	}
}

// TestIntakeMixedTasksAndInvocations drains a racing mix of tasks and
// invocations and checks both kinds land in their queues in
// per-producer order.
func TestIntakeMixedTasksAndInvocations(t *testing.T) {
	const producers, perProducer = 4, 300
	s := bareShard()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				n := intakeNodePool.Get().(*intakeNode)
				if k%2 == 0 {
					n.spec.IsTask = true
					n.spec.Task = pendingTask{Spec: taskSpec{t: &core.TaskSpec{ID: int64(p*perProducer + k)}}}
				} else {
					n.spec.IsTask = false
					n.spec.Inv = queuedInv(&core.InvocationSpec{ID: int64(p*perProducer + k), Library: "lib"})
				}
				s.pushIntake(n)
			}
		}(p)
	}
	wg.Wait()
	s.mu.Lock()
	s.Intake()
	// (That PushInvs marks the library is held in shardplane's own tests.)
	if s.sched.Settled() {
		t.Fatal("drain did not mark the drained queues dirty")
	}
	tasks, invs := s.sched.Tasks(), s.sched.DrainLib("lib")
	s.mu.Unlock()
	if len(tasks)+len(invs) != producers*perProducer {
		t.Fatalf("drained %d tasks + %d invs, want %d total", len(tasks), len(invs), producers*perProducer)
	}
	lastK := map[int]int{}
	for _, pt := range tasks {
		p, k := int(pt.Spec.t.ID)/perProducer, int(pt.Spec.t.ID)%perProducer
		if prev, ok := lastK[p]; ok && k <= prev {
			t.Fatalf("producer %d: task %d drained after item %d", p, k, prev)
		}
		lastK[p] = k
	}
	lastK = map[int]int{}
	for _, pi := range invs {
		p, k := int(pi.Spec.ID)/perProducer, int(pi.Spec.ID)%perProducer
		if prev, ok := lastK[p]; ok && k <= prev {
			t.Fatalf("producer %d: invocation %d drained after item %d", p, k, prev)
		}
		lastK[p] = k
	}
}

// TestIntakeNoLostWakeup hammers SubmitInvocation from many goroutines
// against a live (workerless) manager: every submission must come back
// as a validation failure even when its wake raced a running loop's
// exit. A lost wakeup strands invocations in the intake stack and
// times this test out.
func TestIntakeNoLostWakeup(t *testing.T) {
	m := NewDefault()
	defer m.Shutdown()
	const producers, perProducer = 8, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				m.SubmitInvocation(&core.InvocationSpec{Library: "no-such-library"})
			}
		}()
	}
	wg.Wait()
	res, err := m.Collect(producers*perProducer, 30*time.Second)
	if err != nil {
		t.Fatalf("collect: %v (got %d results)", err, len(res))
	}
	for _, r := range res {
		if r.Ok {
			t.Fatalf("invocation %d of an unknown library reported success", r.ID)
		}
	}
}
