package dataplane

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/pkgindex"
	"repro/internal/poncho"
)

func packedEnv(t *testing.T, modules ...string) (*content.Object, []string) {
	t.Helper()
	spec, err := poncho.Resolve(pkgindex.StandardIndex(), modules)
	if err != nil {
		t.Fatal(err)
	}
	tarball, err := spec.Pack("env.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(spec.Packages))
	for i, p := range spec.Packages {
		names[i] = p.Name
	}
	return tarball, names
}

// TestUnpackedModulesLiveAndDieWithTheUnpack: the module list is read
// when the environment is first expanded, answers from then on without
// the manifest, disappears with eviction, and is rebuilt when the
// environment is staged again.
func TestUnpackedModulesLiveAndDieWithTheUnpack(t *testing.T) {
	p := New(Config{Cache: content.NewCache(0)})
	t.Cleanup(p.Close)
	env, want := packedEnv(t, "mathx")
	if len(want) == 0 {
		t.Fatal("the test environment installs nothing")
	}

	if _, ok := p.UnpackedModules(env.ID); ok {
		t.Fatal("modules retained before the environment was staged")
	}
	if err := p.Put(env, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.UnpackedModules(env.ID); ok {
		t.Fatal("modules retained for an environment staged but never unpacked")
	}
	if first, err := p.MarkUnpacked(env); err != nil || !first {
		t.Fatalf("first unpack: first=%v err=%v", first, err)
	}
	got, ok := p.UnpackedModules(env.ID)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("retained modules = %v (%v), want %v", got, ok, want)
	}

	// The retained list is what later tasks read: an object with the same
	// ID and an unreadable manifest changes nothing, first unpack wins.
	blind := *env
	blind.Data = []byte("not a manifest")
	if first, err := p.MarkUnpacked(&blind); err != nil || first {
		t.Fatalf("second unpack: first=%v err=%v", first, err)
	}
	if got, _ := p.UnpackedModules(env.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("second unpack replaced the retained modules: %v", got)
	}

	if !p.Evict(env.ID) {
		t.Fatal("evict of an unpinned environment refused")
	}
	if got, ok := p.UnpackedModules(env.ID); ok {
		t.Fatalf("modules %v outlived the eviction", got)
	}

	// Re-staged with unpack-on-arrival, the way a FetchFile or PutFile
	// with Unpack set lands.
	if err := p.Put(env, true); err != nil {
		t.Fatal(err)
	}
	got, ok = p.UnpackedModules(env.ID)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-stage: modules = %v (%v), want %v", got, ok, want)
	}

	// Not a tarball: nothing to expand, nothing retained, no error.
	blob := content.NewBlob("args", []byte("x"))
	if err := p.Put(blob, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.UnpackedModules(blob.ID); ok {
		t.Error("a blob has modules")
	}
	if mods, err := ParseModules(blob); mods != nil || err != nil {
		t.Errorf("a blob parses to %v, %v; want nothing and no error", mods, err)
	}
}

// TestLRUEvictionDropsRetainedModules: eviction under cache pressure —
// which the plane never sees — takes the list too.
func TestLRUEvictionDropsRetainedModules(t *testing.T) {
	env, _ := packedEnv(t, "mathx")
	room := env.LogicalSize + env.UnpackedSize
	p := New(Config{Cache: content.NewCache(room)})
	t.Cleanup(p.Close)
	if err := p.Put(env, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.UnpackedModules(env.ID); !ok {
		t.Fatal("nothing retained after unpack")
	}
	filler := content.NewDataset("filler", []byte("f"), room)
	if err := p.Put(filler, false); err != nil {
		t.Fatal(err)
	}
	if p.Cache().Has(env.ID) {
		t.Fatal("the filler did not push the environment out")
	}
	if got, ok := p.UnpackedModules(env.ID); ok {
		t.Fatalf("modules %v outlived the LRU eviction", got)
	}
}

// TestTransientInputCountsItsUses is the regression test for the
// stateless-input race: two tasks whose uncached inputs are the same
// bytes share one content ID, and the first to end used to evict the
// object by ID before the second had pinned it.
func TestTransientInputCountsItsUses(t *testing.T) {
	args := content.NewBlob("args", []byte("same bytes, two tasks"))
	resident := func(p *Plane) bool { return p.Cache().Has(args.ID) }
	newPlane := func() *Plane {
		p := New(Config{Cache: content.NewCache(0)})
		t.Cleanup(p.Close)
		return p
	}

	// Each dispatch staged its own copy; A ends between B's staging
	// frame and B's task frame.
	p := newPlane()
	for _, step := range []struct {
		what string
		do   func()
		want bool
	}{
		{"A staged", func() { _ = p.PutTransient(args, false) }, true},
		{"A claimed", func() { p.Claim(args.ID) }, true},
		{"B staged", func() { _ = p.PutTransient(args, false) }, true},
		{"A ended, B's task frame not yet here", func() { p.Release(args.ID) }, true},
		{"B claimed", func() { p.Claim(args.ID) }, true},
		{"B ended", func() { p.Release(args.ID) }, false},
	} {
		step.do()
		if got := resident(p); got != step.want {
			t.Fatalf("own stagings, after %q: resident=%v, want %v", step.what, got, step.want)
		}
	}

	// B was dispatched while A's staging was still unacknowledged, so the
	// manager sent B no copy of its own; a third task then stages one
	// while A still runs.
	p = newPlane()
	for _, step := range []struct {
		what string
		do   func()
		want bool
	}{
		{"A staged", func() { _ = p.PutTransient(args, false) }, true},
		{"A claimed", func() { p.Claim(args.ID) }, true},
		{"B claimed A's staging", func() { p.Claim(args.ID) }, true},
		{"B ended", func() { p.Release(args.ID) }, true},
		{"C staged", func() { _ = p.PutTransient(args, false) }, true},
		{"A ended", func() { p.Release(args.ID) }, true},
		{"C claimed", func() { p.Claim(args.ID) }, true},
		{"C ended", func() { p.Release(args.ID) }, false},
	} {
		step.do()
		if got := resident(p); got != step.want {
			t.Fatalf("shared staging, after %q: resident=%v, want %v", step.what, got, step.want)
		}
	}

	// A pin held by anyone else outlives the last release, as it outlived
	// the eviction by ID.
	p = newPlane()
	_ = p.PutTransient(args, false)
	p.Claim(args.ID)
	if _, err := p.PinResolve(args.ID); err != nil {
		t.Fatal(err)
	}
	p.Release(args.ID)
	if !resident(p) {
		t.Fatal("released input evicted under a pin")
	}
}

// TestTransientInputUnderConcurrentTasks drives the counted lifecycle
// the way a worker does — stagings and claims from one goroutine in
// frame order, task bodies and their releases from many — and demands
// that no task ever finds its input gone and nothing is left behind.
func TestTransientInputUnderConcurrentTasks(t *testing.T) {
	p := New(Config{Cache: content.NewCache(0)})
	t.Cleanup(p.Close)
	args := content.NewBlob("args", []byte("shared by every task"))
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		if i%3 != 2 { // every third task rides the previous staging
			if err := p.PutTransient(args, false); err != nil {
				t.Fatal(err)
			}
		} else if !p.Cache().Has(args.ID) {
			// The staging it would ride is already gone: the one case the
			// worker cannot close, since the manager sent no copy.
			continue
		}
		p.Claim(args.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release(args.ID)
			if _, err := p.PinResolve(args.ID); err != nil {
				t.Errorf("claimed input: %v", err)
				return
			}
			_ = p.Unpin(args.ID)
		}()
	}
	wg.Wait()
	if p.Cache().Has(args.ID) {
		t.Error("input still cached after its last task ended")
	}
}
