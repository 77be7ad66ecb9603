package sim

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
)

// TestRunAllocs pins what a timed run allocates per invocation, its
// setup (150 workers, their slots, views and links) spread over the
// invocations: an L3 run, whose invocations go to library instances
// deployed early in it, and an L2 run, each of whose invocations is a
// task placed on the hash ring. Every continuation of an invocation is
// a handler bound once per slot and the event loop and the fair-share
// links recycle their nodes, so an L3 invocation allocates nothing once
// the instances are up; an L2 one still allocates its ring key and
// what the policy core's walk for it allocates. Each pin is the value
// this run reads (0.35 and 3.90) plus a margin that one allocation more
// per invocation exceeds. L1 is read and reported, not pinned.
func TestRunAllocs(t *testing.T) {
	runs := []struct {
		level core.ReuseLevel
		n     int
		pin   float64 // 0: reported only
	}{
		{core.L3, 20000, 0.5},
		{core.L2, 5000, 4.5},
		{core.L1, 2000, 0},
	}
	total := 0
	for _, r := range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(lnni(r.level, 150, r.n))
		runtime.ReadMemStats(&after)
		total += r.n
		if len(res.Times) != r.n {
			t.Fatalf("%v: %d of %d invocations completed", r.level, len(res.Times), r.n)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(r.n)
		t.Logf("%.4f allocations per %v invocation", per, r.level)
		if r.pin > 0 && per > r.pin {
			t.Errorf("%v: a run allocates %.4f times per invocation, want at most %.2f", r.level, per, r.pin)
		}
	}
	t.Logf("%d invocations in all", total) // scripts/allocs.sh reads this and the lines above
}

// BenchmarkRun times a whole L3 run of the standard LNNI configuration
// at the paper's 150 workers and at ten times that, with about 42
// invocations per slot at each size (100 000 and 1 000 000). ns/inv and
// allocs/inv divide a run by its invocations, its setup included.
//
//	go test -run '^$' -bench Run -benchtime 3x ./internal/sim
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct{ workers, n int }{{150, 100_000}, {1500, 1_000_000}} {
		b.Run("workers="+strconv.Itoa(c.workers), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if res := Run(lnni(core.L3, c.workers, c.n)); len(res.Times) != c.n {
					b.Fatalf("%d of %d invocations completed", len(res.Times), c.n)
				}
			}
			runtime.ReadMemStats(&after)
			invs := float64(b.N) * float64(c.n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/invs, "ns/inv")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/invs, "allocs/inv")
		})
	}
}
