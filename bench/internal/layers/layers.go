// Package layers drives each layer of the engine through its exported
// functions and times the calls: the per-layer numbers of a traced run.
// Nothing here runs inside the engine; a probe builds the inputs a
// workload would hand the layer (the no-op argument tuple, the LNNI
// functions, a 2 MB blob, a 64-worker cluster view), calls the layer a
// fixed number of times under one span per repetition, and reports the
// median repetition. The same suite runs in every traced run, whatever
// the workload, so a layer's number means the same thing everywhere.
package layers

import (
	"fmt"
	"io"

	"repro/bench/internal/loadgen"
	"repro/bench/internal/span"
	"repro/bench/internal/stats"
	"repro/internal/minipy"
	"repro/internal/modlib"
)

// LNNIApp is the application the Discover, library and pickle probes
// use: the paper's LNNI functions as the repository's examples write
// them. classify_task takes one argument more, the operation's number,
// which it ignores: the engine stages a stateless task's arguments as
// an uncached object named by its content, and the first of two tasks
// with identical arguments to finish on a worker evicts it under the
// other ("input "args" not staged"). A distinct number per operation
// keeps context_reload clear of that.
const LNNIApp = `
def context_setup():
    global model
    import resnet
    model = resnet.load_model("resnet50")

def classify(seed, n):
    import imageproc
    global model
    return model.infer_batch(imageproc.generate_batch(seed, n))

def classify_task(seed, n, op):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    return model.infer_batch(imageproc.generate_batch(seed, n))
`

// BlobBytes is the object size the data-path probes move: the size of
// data_fanout's blob.
const BlobBytes = 2 << 20

// reps is how many times each probe repeats its fixed call count; the
// median repetition is reported.
const reps = 5

// suite is one execution of all probes.
type suite struct {
	st    *span.Store
	clock loadgen.Clock
	short bool
	out   map[string]float64
}

// n scales a probe's call count down for the tests' short runs.
func (s *suite) n(full int) int {
	if s.short {
		return max(full/100, 2)
	}
	return full
}

// perCall runs f `calls` times per repetition under one span per
// repetition and returns the median nanoseconds per call.
func (s *suite) perCall(name string, calls int, f func()) float64 {
	calls = s.n(calls)
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := s.clock.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		t1 := s.clock.Now()
		s.st.Add(0, 0, name, t0, t1, int64(calls))
		per = append(per, float64(t1-t0)/float64(calls))
	}
	return stats.Median(per)
}

// timed runs f once per repetition under one span; f returns how many
// calls it made and how many of the span's nanoseconds count (0 = all
// of them). The median nanoseconds per call is returned.
func (s *suite) timed(name string, reps int, f func() (calls int, countedNs int64, err error)) (float64, error) {
	per := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := s.clock.Now()
		calls, counted, err := f()
		t1 := s.clock.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		s.st.Add(0, 0, name, t0, t1, int64(calls))
		if counted == 0 {
			counted = t1 - t0
		}
		per = append(per, float64(counted)/float64(max(calls, 1)))
	}
	return stats.Median(per), nil
}

// host resolves every module the repository implements, like the
// application's own interpreter and a worker with the full environment
// unpacked.
type host struct{ reg *modlib.Registry }

func (h host) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if !h.reg.Has(name) {
		return nil, fmt.Errorf("no module named '%s'", name)
	}
	return h.reg.Build(name)
}

func (h host) Stdout() io.Writer { return io.Discard }

// RunAll runs every probe, recording its spans in st on the given
// clock, and returns the driven per-layer metrics by catalog name.
func RunAll(st *span.Store, clock loadgen.Clock, short bool) (map[string]float64, error) {
	s := &suite{st: st, clock: clock, short: short, out: map[string]float64{}}
	for _, probe := range []func() error{
		s.pickleAndMinipy, s.discover, s.library, s.policy, s.shardplane,
		s.protoCodec, s.protoWire, s.dataplane, s.event, s.sim, s.engine,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return s.out, nil
}
