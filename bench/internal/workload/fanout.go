package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/bench/internal/hostinfo"
	"repro/bench/internal/loadgen"
	"repro/bench/internal/stats"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/taskvine"
)

// fanout is data_fanout: Distribute and the proxy-object plane. Each
// round a fresh seeded blob (unique content, so nothing is cached) goes
// manager → producer as a bulk direct send; the producer's by-ref
// result is bound with core.RefSpec by `consumers` full-worker tasks
// that must resolve it worker-to-worker and return a checksum of its
// bytes. One operation is one task; bytes per operation are ~10⁴ times
// those of invoke_*, so a copy added to or removed from the data path
// shows here and nowhere else.
type fanout struct {
	cfg Config

	workers, cores, consumers, blobBytes int
	inflight, roundsPerEpoch, warmRounds int
	// A cluster serves clusterRounds timed rounds and is then replaced
	// (see phase).
	clusterRounds int

	c      *cluster
	served int // timed rounds the cluster has served
	rng    *rand.Rand
	// retired holds the counters of the clusters already replaced, less
	// what their successors' set-ups counted, so that counters() keeps
	// growing by what the timed rounds alone did.
	retired counters
}

func newFanout(cfg Config) *fanout {
	w := &fanout{
		cfg: cfg, workers: 8, cores: 4, consumers: 8, blobBytes: 2 << 20,
		inflight: 2, roundsPerEpoch: 4, warmRounds: 36, clusterRounds: 120,
		rng: rand.New(rand.NewSource(int64(cfg.Seed))),
	}
	if cfg.Short {
		w.workers, w.consumers, w.blobBytes, w.roundsPerEpoch, w.warmRounds, w.clusterRounds = 3, 3, 64<<10, 2, 2, 4
	}
	return w
}

func (w *fanout) opsPerRound() int { return 1 + w.consumers }

const producerScript = `
import vine_runtime
vine_runtime.store_result(vine_runtime.load_text("blob"))
`

// consumerScript loads the producer's result by its proxy name and
// returns a checksum of it: the length and three letter counts, each a
// native pass over the bytes.
const consumerScript = `
import vine_runtime
s = vine_runtime.load_pickle(%q)
vine_runtime.store_result(len(s) * 1000003 + s.count("a") * 10007 + s.count("m") * 101 + s.count("z"))
`

func checksum(blob []byte) int64 {
	n := func(c byte) int64 { return int64(bytes.Count(blob, []byte{c})) }
	return int64(len(blob))*1000003 + n('a')*10007 + n('m')*101 + n('z')
}

// newBlob draws a fresh blob of lower-case letters.
func (w *fanout) newBlob() []byte {
	b := make([]byte, w.blobBytes)
	w.rng.Read(b)
	for i, v := range b {
		b[i] = 'a' + v%26
	}
	return b
}

func (w *fanout) setup() error {
	// The cache bound keeps consumer replicas from accumulating (seven
	// per round, plain LRU entries). Each producer's owned copy stays
	// pinned for the life of the cluster, and a worker whose cache is
	// full of pinned copies spills its next result to the shared tier —
	// another regime, which this workload does not cover and teardown
	// refuses. A cluster's life is a fixed number of rounds, so how full
	// the caches get does not depend on how fast the rounds go: a cache
	// holds twice a worker's even share of the copies the cluster
	// will ever pin.
	rounds := int64(w.warmRounds + w.clusterRounds + w.inflight)
	wo := taskvine.WorkerOptions{Resources: core.Resources{Cores: w.cores}, CacheCapacity: 2 * rounds * int64(w.blobBytes) / int64(w.workers)}
	c, err := startCluster(w.cfg.host, w.workers, taskvine.Options{}, wo)
	if err != nil {
		return err
	}
	w.c = c
	if _, err := c.prime(func() (int64, error) {
		return c.m.SubmitTask("import vine_runtime\nvine_runtime.store_result(1)\n", core.Resources{Cores: 1}), nil
	}); err != nil {
		return err
	}
	h, submit := w.rounds()
	return c.warm(w.warmRounds*w.opsPerRound(), h, submit)
}

type fanEvent struct {
	round int
	ref   *core.ObjectRef // set when the round's producer finished; nil when the round did
}

// rounds builds the pass. Besides the latency ledger, two more ledgers
// carry, per operation, the round it belongs to (negative for the
// producer) and the value its result must have — written by the
// submitter before the submit, read by the collector after the result.
func (w *fanout) rounds() (hooks, func(l *loop) error) {
	roundOf := loadgen.NewLedger(w.c.nextID)
	expect := loadgen.NewLedger(w.c.nextID)
	events := make(chan fanEvent, 4*w.inflight) // a producer and a round event per round in flight, with slack
	left := map[int]int{}                       // collector-owned: consumers outstanding per round

	h := hooks{
		check: func(seq int, res *core.Result) error {
			_, r, _ := roundOf.From(res.ID)
			_, want, _ := expect.From(res.ID)
			if r < 0 {
				if res.Ref == nil || len(res.Value) != 0 {
					return fmt.Errorf("by-ref producer returned no proxy handle (inline bytes: %d)", len(res.Value))
				}
				if res.Ref.Size < want {
					return fmt.Errorf("producer's object is %d bytes, the blob was %d", res.Ref.Size, want)
				}
				return nil
			}
			data, err := pickle.Marshal(minipy.Int(want))
			if err != nil {
				return err
			}
			if !bytes.Equal(res.Value, data) {
				return fmt.Errorf("consumer of round %d returned a checksum that differs from the blob's", r)
			}
			return nil
		},
		onResult: func(seq int, res *core.Result, _, _ int64) {
			_, r, _ := roundOf.From(res.ID)
			if r < 0 {
				left[int(-r)] = w.consumers
				events <- fanEvent{round: int(-r), ref: res.Ref}
				return
			}
			if left[int(r)]--; left[int(r)] == 0 {
				delete(left, int(r))
				events <- fanEvent{round: int(r)}
			}
		},
	}

	submit := func(l *loop) error {
		sums := map[int]int64{}
		task := func(round, want int64, do func() int64) error {
			roundOf.Submit(round)
			expect.Submit(want)
			now := l.clock.Now()
			seq := l.begin(now)
			return l.end(seq, now, do(), nil)
		}
		started, finished := 0, 0
		startRound := func() error {
			started++
			blob := w.newBlob()
			sums[started] = checksum(blob)
			obj := content.NewBlob("blob", blob)
			return task(int64(-started), int64(len(blob)), func() int64 {
				return w.c.m.SubmitTaskByRef(producerScript, core.Resources{Cores: 1}, core.FileSpec{Object: obj})
			})
		}
		for started < w.inflight && !l.stopAt(started*w.opsPerRound(), w.roundsPerEpoch*w.opsPerRound()) {
			if err := startRound(); err != nil {
				return err
			}
		}
		for finished < started {
			var ev fanEvent
			select {
			case ev = <-events:
			case <-l.gone:
				return errAborted
			}
			if ev.ref == nil {
				finished++
				delete(sums, ev.round)
				if !l.stopAt(started*w.opsPerRound(), w.roundsPerEpoch*w.opsPerRound()) {
					if err := startRound(); err != nil {
						return err
					}
				}
				continue
			}
			script := fmt.Sprintf(consumerScript, ev.ref.Name)
			for i := 0; i < w.consumers; i++ {
				if err := task(int64(ev.round), sums[ev.round], func() int64 {
					return w.c.m.SubmitTask(script, core.Resources{Cores: w.cores}, core.RefSpec(ev.ref))
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return h, submit
}

// phase runs passes on clusters that each serve exactly clusterRounds
// timed rounds (the last one fewer). The engine never releases a by-ref
// result and its catalog keeps every task input, so a cluster grows by
// a blob's worth of pinned memory per round; replacing it after a fixed
// count of rounds — between two epochs, outside the timing of either —
// keeps the regime the same however many rounds a run gets through.
func (w *fanout) phase(seconds float64, tr *tracer) (*phaseResult, error) {
	epochOps := w.roundsPerEpoch * w.opsPerRound()
	total := &phaseResult{epochs: stats.NewEpochs(epochOps, 0, w.cfg.host.read), extra: map[string]float64{}}
	for timed := 0.0; ; {
		if w.served >= w.clusterRounds {
			before := hostinfo.ReadUsage()
			if err := w.replaceCluster(); err != nil {
				return nil, err
			}
			total.untimed = total.untimed.Add(hostinfo.ReadUsage().Sub(before))
		}
		h, submit := w.rounds()
		t0 := time.Now()
		pr := w.c.run(epochOps, budget{ops: (w.clusterRounds - w.served) * w.opsPerRound(), seconds: seconds - timed}, tr, h, submit)
		timed += time.Since(t0).Seconds()
		w.served += pr.attempted / w.opsPerRound()
		total.append(pr)
		if pr.failed > 0 || timed >= seconds {
			return total, nil
		}
	}
}

// replaceCluster tears the cluster down (checking quiescence and that
// nothing spilled) and sets a fresh one up, warm-up included.
func (w *fanout) replaceCluster() error {
	w.retired.add(readCounters(w.c.m))
	if err := w.teardown(); err != nil {
		return err
	}
	runtime.GC() // the old cluster's blobs
	if err := w.setup(); err != nil {
		return err
	}
	w.served = 0
	w.retired = w.retired.sub(readCounters(w.c.m))
	return nil
}

func (w *fanout) counters() counters {
	c := w.retired
	c.add(readCounters(w.c.m))
	return c
}

func (w *fanout) teardown() error {
	if w.c == nil {
		return nil
	}
	var spills int64
	for _, lw := range w.c.m.LocalWorkers() {
		spills += lw.Stats().Data.Spills
	}
	err := w.c.stop()
	w.c = nil
	if err != nil {
		return err
	}
	if spills > 0 {
		return fmt.Errorf("%d results spilled to the shared tier: the pinned copies of %d rounds outgrew a worker's cache", spills, w.warmRounds+w.clusterRounds)
	}
	return nil
}

// attributedUs: per task, a placement decision; per round (1/9 of it
// per task) a resolve decision per consumer, one bulk send manager →
// producer, seven worker-to-worker fetches of the blob and a cache put
// per receiver. Throughput metrics enter as the time to move one blob
// at the measured rate.
func (w *fanout) attributedUs(m map[string]float64) float64 {
	mb := float64(w.blobBytes) / 1e6
	round := float64(w.consumers)*us(m, "policy.plan_resolve_ns") +
		moveUs(m, "proto.bulk_send_mb_s", mb) +
		float64(w.consumers-1)*moveUs(m, "dataplane.fetch_peer_mb_s", mb) +
		float64(w.consumers)*moveUs(m, "dataplane.put_mb_s", mb)
	return us(m, "policy.plan_task_batch_ns_per_task") + round/float64(w.opsPerRound())
}
