package worker

import (
	"bytes"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/proto"
)

// scaleSource is the wrapped function these tests send: a default that
// prints otherwise once evaluated (a rebuild that installed the pickled
// value into the shared tree would show in its print), locals, and a
// loop that keeps the tasks in flight together.
const scaleSource = "def scale(x, k=1 + 2):\n    y = x * k\n    for i in range(200):\n        y = y + i - i\n    return y + 1\n"

// wrappedScale pickles scale as the manager's WrapFunction does and
// returns its blob with the source text the pickle carries.
func wrappedScale(t *testing.T) (fn *content.Object, src string) {
	t.Helper()
	env, err := minipy.NewInterp(nil).RunModule(scaleSource, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Get("scale")
	data, err := pickle.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	src, _, err = minipy.GetSource(v.(*minipy.Func))
	if err != nil {
		t.Fatal(err)
	}
	return content.NewBlob("func", data), src
}

// scaleTask stages the arguments (x,) and returns the wrapper task that
// calls scale on them, with the pickled result it must return.
func (fm *fakeManager) scaleTask(t *testing.T, id int64, fn *content.Object, x int64) (core.TaskSpec, []byte) {
	t.Helper()
	args, err := pickle.MarshalTuple([]minipy.Value{minipy.Int(x)})
	if err != nil {
		t.Fatal(err)
	}
	argsObj := content.NewBlob("args", args)
	if ack := fm.put(t, argsObj, false, false); !ack.Ok {
		t.Fatalf("put args: %+v", ack)
	}
	want, err := pickle.Marshal(minipy.Int(x*3 + 1))
	if err != nil {
		t.Fatal(err)
	}
	return core.TaskSpec{
		ID: id, Script: WrapperScript, Resources: core.Resources{Cores: 1},
		Inputs: []core.FileSpec{{Object: fn, Cache: true}, {Object: argsObj}},
	}, want
}

// TestConcurrentTasksShareOneTree: sixteen wrapper tasks in flight at
// once on one worker run one cached function with their own arguments.
// Every result is its own, the worker parses nothing more, and the
// shared trees print the same after as before (under -race, any write
// to them is reported).
func TestConcurrentTasksShareOneTree(t *testing.T) {
	const tasks = 16
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	fn, src := wrappedScale(t)
	if ack := fm.put(t, fn, true, false); !ack.Ok {
		t.Fatalf("put func: %+v", ack)
	}
	spec, want := fm.scaleTask(t, 1, fn, 1)
	if res := fm.runTaskOK(t, spec); !bytes.Equal(res.Value, want) {
		t.Fatalf("warm-up task returned %q, want %q", res.Value, want)
	}
	code := &w.exec.code
	printed := func() string {
		var out string
		for _, text := range []string{WrapperScript, src} {
			mod, err := code.Module(text)
			if err != nil {
				t.Fatal(err)
			}
			out += minipy.PrintModule(mod.Body)
		}
		return out
	}
	before := printed()
	parsed := code.Stats().Parses

	wants := map[int64][]byte{}
	specs := make([]core.TaskSpec, tasks)
	for i := range specs {
		id := int64(100 + i)
		specs[i], wants[id] = fm.scaleTask(t, id, fn, 1000*int64(i)+7)
	}
	for i := range specs {
		if err := fm.conn.Send(proto.MsgRunTask, specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for range specs {
		res := fm.result(t)
		if !res.Ok || !bytes.Equal(res.Value, wants[res.ID]) {
			t.Fatalf("task %d: ok=%v %s value %q, want %q", res.ID, res.Ok, res.Err, res.Value, wants[res.ID])
		}
		delete(wants, res.ID)
	}
	if after := printed(); after != before {
		t.Fatalf("the shared trees print\n%s\nafter the tasks, and\n%s\nbefore", after, before)
	}
	if st := code.Stats(); st.Parses != parsed {
		t.Errorf("the tasks parsed %d texts, want none", st.Parses-parsed)
	}
}

// TestWorkersParseEachTextOnce: two in-process workers stand for two
// machines. Each parses the wrapper script and the function's source
// once, however often it runs them, and holds its own trees.
func TestWorkersParseEachTextOnce(t *testing.T) {
	fn, src := wrappedScale(t)
	run := func(id string, times int) *Worker {
		fm := newFakeManager(t)
		w, _ := startWorker(t, fm, Config{ID: id})
		if ack := fm.put(t, fn, true, false); !ack.Ok {
			t.Fatalf("put func: %+v", ack)
		}
		for i := 0; i < times; i++ {
			spec, want := fm.scaleTask(t, int64(i+1), fn, int64(i))
			if res := fm.runTaskOK(t, spec); !bytes.Equal(res.Value, want) {
				t.Fatalf("%s task %d returned %q, want %q", id, i+1, res.Value, want)
			}
		}
		return w
	}
	a, b := run("a", 3), run("b", 1)
	if st := a.exec.code.Stats(); st != (minipy.CodeStats{Parses: 2, Hits: 4, Entries: 2}) {
		t.Errorf("worker a after three tasks: %+v, want 2 parses, 4 hits, 2 entries", st)
	}
	if st := b.exec.code.Stats(); st != (minipy.CodeStats{Parses: 2, Entries: 2}) {
		t.Errorf("worker b after one task: %+v, want 2 parses, no hit, 2 entries", st)
	}
	for _, text := range []string{WrapperScript, src} {
		ta, _ := a.exec.code.Module(text)
		tb, _ := b.exec.code.Module(text)
		if ta == tb {
			t.Errorf("two workers hold one tree for %q", text)
		}
	}
}
