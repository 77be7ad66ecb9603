package worker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/proto"
)

// ownInputsScript reads each of its task's inputs through vine_runtime,
// spinning in between so that the tasks are in flight together.
const ownInputsScript = `
import vine_runtime
note = vine_runtime.load_text("note")
i = 0
while i < 2000:
    i = i + 1
vine_runtime.store_result((note, vine_runtime.load_pickle("args"), vine_runtime.input_names()))
`

// TestTaskRuntimeIsSharedNotLeaked: sixteen tasks in flight at once on
// one worker share one vine_runtime module, and its builtins find each
// task through the interpreter that calls them: every task's load_text,
// load_pickle and input_names see its own inputs only, and every result
// is its own (under -race, a builtin that reached another task's record
// would be reported).
func TestTaskRuntimeIsSharedNotLeaked(t *testing.T) {
	const tasks = 16
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	wants := map[int64]string{}
	specs := make([]core.TaskSpec, tasks)
	for i := range specs {
		id := int64(100 + i)
		args, err := pickle.Marshal(minipy.Int(1000 + id))
		if err != nil {
			t.Fatal(err)
		}
		own := fmt.Sprintf("own-%d", id)
		spec := core.TaskSpec{ID: id, Script: ownInputsScript, Resources: core.Resources{Cores: 1}}
		for _, obj := range []*content.Object{
			content.NewBlob("note", []byte(fmt.Sprintf("note of task %d", id))),
			content.NewBlob("args", args),
			content.NewBlob(own, []byte(own)),
		} {
			if ack := fm.put(t, obj, false, false); !ack.Ok {
				t.Fatalf("put %s: %+v", obj.Name, ack)
			}
			spec.Inputs = append(spec.Inputs, core.FileSpec{Object: obj})
		}
		wants[id] = fmt.Sprintf(`("note of task %d", %d, ["args", "note", "%s"])`, id, 1000+id, own)
		specs[i] = spec
	}
	for i := range specs {
		if err := fm.conn.Send(proto.MsgRunTask, specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for range tasks {
		res := fm.result(t)
		if !res.Ok {
			t.Fatalf("task %d: %s", res.ID, res.Err)
		}
		v, err := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
		if err != nil || v.Repr() != wants[res.ID] {
			t.Fatalf("task %d stored %v (%v), want %s", res.ID, v, err, wants[res.ID])
		}
		delete(wants, res.ID)
	}

	a, b := &task{e: w.exec}, &task{e: w.exec}
	ma, _ := a.ResolveModule(nil, "vine_runtime")
	mb, _ := b.ResolveModule(nil, "vine_runtime")
	if ma != runtimeModule || mb != runtimeModule {
		t.Error("two tasks resolve vine_runtime to different modules")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = a.ResolveModule(nil, "vine_runtime") }); n != 0 {
		t.Errorf("resolving vine_runtime allocates %.1f times, want 0", n)
	}
}

// TestRuntimeOutsideATaskErrs: a vine_runtime builtin called from an
// interpreter that is not running a task has no task to read or write,
// and says so.
func TestRuntimeOutsideATaskErrs(t *testing.T) {
	for _, name := range []string{"load_text", "load_pickle", "store_result", "input_names"} {
		b := runtimeModule.Attrs[name].(*minipy.Builtin)
		_, err := b.Fn(minipy.NewInterp(nil), []minipy.Value{minipy.Str("args")})
		if err == nil || !strings.Contains(err.Error(), "only available to a task") {
			t.Errorf("%s() outside a task: %v", name, err)
		}
	}
}
