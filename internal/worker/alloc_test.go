package worker

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/proto"
)

// runTaskOK dispatches spec and returns its (successful) result.
func (fm *fakeManager) runTaskOK(t *testing.T, spec core.TaskSpec) core.Result {
	t.Helper()
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, err := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if err != nil || !res.Ok {
		t.Fatalf("task %d: %+v %v", spec.ID, res, err)
	}
	return res
}

// TestObjectBytesAllocatedOncePerWorker follows a 2 MB blob from the
// manager's bulk frame through load_text and a by-ref store_result, then
// through load_pickle of that result: the worker allocates the blob's
// bytes when they arrive and the result's bytes when they are pickled,
// and nothing else of that size — no copy out of the receive buffer,
// none into the interpreter, none out of the encoder.
func TestObjectBytesAllocatedOncePerWorker(t *testing.T) {
	fm := newFakeManager(t)
	startWorker(t, fm, Config{ID: "w"})
	const size = 2 << 20
	blob := content.NewBlob("blob", bytes.Repeat([]byte("abcdefgh"), size/8))
	want, err := pickle.Marshal(minipy.Int(size))
	if err != nil {
		t.Fatal(err)
	}
	// One small round first: interpreters, connections and pools warm up.
	fm.put(t, content.NewBlob("blob", []byte("warm")), false, false)
	fm.runTaskOK(t, core.TaskSpec{
		ID: 1, Script: "import vine_runtime\nvine_runtime.store_result(len(vine_runtime.load_text(\"blob\")))\n",
		Inputs: []core.FileSpec{{Object: content.NewBlob("blob", []byte("warm"))}}, Resources: core.Resources{Cores: 1},
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if ack := fm.put(t, blob, false, false); !ack.Ok {
		t.Fatalf("put: %+v", ack)
	}
	produced := fm.runTaskOK(t, core.TaskSpec{
		ID: 2, Script: "import vine_runtime\nvine_runtime.store_result(vine_runtime.load_text(\"blob\"))\n",
		Inputs: []core.FileSpec{{Object: blob}}, Resources: core.Resources{Cores: 1}, ResultByRef: true,
	})
	if produced.Ref == nil || produced.Ref.Size < size {
		t.Fatalf("producer returned %+v, want a ref to at least %d bytes", produced, size)
	}
	consumed := fm.runTaskOK(t, core.TaskSpec{
		ID: 3, Script: fmt.Sprintf("import vine_runtime\nvine_runtime.store_result(len(vine_runtime.load_pickle(%q)))\n", produced.Ref.Name),
		Inputs:    []core.FileSpec{{Object: &content.Object{ID: produced.Ref.ID, Name: produced.Ref.Name}, Cache: true}},
		Resources: core.Resources{Cores: 1},
	})
	runtime.ReadMemStats(&after)
	if !bytes.Equal(consumed.Value, want) {
		t.Fatalf("consumer read a string of the wrong length")
	}
	// slack: two interpreters, the frames' headers, page rounding.
	const slack = 512 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*size+slack {
		t.Errorf("blob in, by-ref result out, result read back: %d bytes allocated, want at most two blob sizes (%d) + %d", got, 2*size, slack)
	}
}

// TestBorrowedTextOutlivesEviction: load_text and load_pickle hand out
// views of a cached object's bytes. A script may still hold one when the
// object has been unpinned and evicted; the view stays what it was, read
// here from a second goroutine while the cache churns (under -race, any
// write to those bytes would be reported).
func TestBorrowedTextOutlivesEviction(t *testing.T) {
	const size = 256 << 10
	text := strings.Repeat("borrowed", size/8)
	pickled, err := pickle.Marshal(minipy.Str(text))
	if err != nil {
		t.Fatal(err)
	}
	plane := dataplane.New(dataplane.Config{Cache: content.NewCache(4 * size)})
	loadText, loadPickle := library.ObjectLoaders(func(name string) (*content.Object, error) {
		return plane.PinResolve(name)
	})
	var views []minipy.Value
	for _, c := range []struct {
		load *minipy.Builtin
		data []byte
	}{{loadText, []byte(text)}, {loadPickle, pickled}} {
		obj := content.NewBlob("obj", c.data)
		if err := plane.Put(obj, false); err != nil {
			t.Fatal(err)
		}
		v, err := c.load.Fn(minipy.NewInterp(nil), []minipy.Value{minipy.Str(obj.ID)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := plane.Unpin(obj.ID); err != nil {
			t.Fatal(err)
		}
		if !plane.Evict(obj.ID) {
			t.Fatal("unpinned object was not evicted")
		}
		views = append(views, v)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, v := range views {
				if string(v.(minipy.Str)) != text {
					t.Error("a borrowed string changed after its object was evicted")
					return
				}
			}
		}
	}()
	// Churn: other objects of the same size come and go through the cache.
	for i := 0; i < 40; i++ {
		obj := content.NewBlob("churn", bytes.Repeat([]byte{byte(i)}, size))
		if err := plane.Put(obj, false); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	wg.Wait()
}

// TestInvocationArgsSurviveNextFrame: a library keeps an argument it
// was called with; the invocation frames that follow land in the same
// receive buffer that one was decoded from, and must not show through.
func TestInvocationArgsSurviveNextFrame(t *testing.T) {
	fm := newFakeManager(t)
	startWorker(t, fm, Config{ID: "w"})
	fm.install(t, core.LibrarySpec{Name: "lib", Functions: []core.FunctionSpec{
		{Name: "keep", Source: "def keep(s):\n    global kept\n    kept = s\n    return 0\n"},
		{Name: "drop", Source: "def drop(s):\n    return 0\n"},
		{Name: "get", Source: "def get():\n    return kept\n"},
	}})
	invoke := func(id int64, function string, args ...minipy.Value) []byte {
		t.Helper()
		fm.invoke(t, id, "lib", function, args...)
		res := fm.result(t)
		if !res.Ok {
			t.Fatalf("%s: %+v", function, res)
		}
		return res.Value
	}
	// Well over the borrow floor, and every frame the same length.
	first := strings.Repeat("first---", 4<<10)
	invoke(1, "keep", minipy.Str(first))
	for i := int64(0); i < 3; i++ {
		invoke(2+i, "drop", minipy.Str(strings.Repeat("later---", 4<<10)))
	}
	want, err := pickle.Marshal(minipy.Str(first))
	if err != nil {
		t.Fatal(err)
	}
	if got := invoke(9, "get"); !bytes.Equal(got, want) {
		t.Error("an argument the library kept was overwritten by a later frame")
	}
}
