package pkgindex

import (
	"strings"
	"testing"
)

func TestStandardIndexLNNIClosure(t *testing.T) {
	ix := StandardIndex()
	pkgs, err := ix.ResolveClosure([]string{"resnet"})
	if err != nil {
		t.Fatal(err)
	}
	// §4.7: 144 packages, ~572 MB packed, ~3.1 GB installed.
	if len(pkgs) != 144 {
		t.Errorf("resnet closure = %d packages, want 144", len(pkgs))
	}
	var packed, installed int64
	for _, p := range pkgs {
		packed += p.PackedSize
		installed += p.InstalledSize
	}
	if mb := packed >> 20; mb < 540 || mb > 610 {
		t.Errorf("packed = %d MB, want ~572", mb)
	}
	if gb10 := installed * 10 >> 30; gb10 < 29 || gb10 > 33 {
		t.Errorf("installed = %d tenths of GB, want ~31", gb10)
	}
}

func TestResolveClosureDedup(t *testing.T) {
	ix := StandardIndex()
	// chemtools and mlpack both depend on mathx; the closure holds it
	// once.
	pkgs, err := ix.ResolveClosure([]string{"chemtools", "mlpack"})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, p := range pkgs {
		if p.Name == "mathx" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("mathx appears %d times", count)
	}
	// Sorted by name.
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].Name >= pkgs[i].Name {
			t.Fatalf("closure not sorted at %d: %s >= %s", i, pkgs[i-1].Name, pkgs[i].Name)
		}
	}
}

func TestResolveClosureErrors(t *testing.T) {
	ix := StandardIndex()
	if _, err := ix.ResolveClosure([]string{"nope"}); err == nil {
		t.Errorf("unknown root accepted")
	}
	// Missing transitive dependency reports the requiring chain.
	ix2 := New()
	ix2.Add(&Package{Name: "a", Deps: []string{"missing-dep"}})
	_, err := ix2.ResolveClosure([]string{"a"})
	if err == nil || !strings.Contains(err.Error(), "missing-dep") {
		t.Errorf("missing dep error = %v", err)
	}
}

func TestCyclicDependenciesTolerated(t *testing.T) {
	ix := New()
	ix.Add(&Package{Name: "a", Deps: []string{"b"}})
	ix.Add(&Package{Name: "b", Deps: []string{"a"}})
	pkgs, err := ix.ResolveClosure([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Errorf("cycle closure = %d packages", len(pkgs))
	}
}

func TestLookupAndNames(t *testing.T) {
	ix := StandardIndex()
	if p, ok := ix.pkgs["tensorstore"]; !ok || p.Version == "" {
		t.Errorf("tensorstore lookup failed")
	}
	if _, ok := ix.pkgs["ghost"]; ok {
		t.Errorf("ghost package found")
	}
	names := ix.Names()
	if len(names) != len(ix.pkgs) {
		t.Errorf("Names lists %d of %d packages", len(names), len(ix.pkgs))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted")
		}
	}
}

// Every StandardIndex shares one package table, built once, but is a map
// of its own: Add on one index changes no other, and a second index
// costs a map copy, not the ~500 allocations of building the table.
func TestStandardIndexIsBuiltOnceAndOwnedByEach(t *testing.T) {
	a, b := StandardIndex(), StandardIndex()
	a.Add(&Package{Name: "local-only", Version: "1"})
	a.Add(&Package{Name: "mathx", Version: "9.9"})
	if _, ok := b.pkgs["local-only"]; ok {
		t.Error("a package added to one index shows in another")
	}
	if p := b.pkgs["mathx"]; p.Version != "2.1.0" {
		t.Errorf("replacing a package in one index changed another: mathx %s", p.Version)
	}
	pa := StandardIndex().pkgs["tensorstore"]
	pb := b.pkgs["tensorstore"]
	if pa != pb {
		t.Error("indexes do not share the standard packages")
	}
	if n := testing.AllocsPerRun(20, func() { StandardIndex() }); n > 10 {
		t.Errorf("StandardIndex makes %v allocations, want a map copy's few", n)
	}
}

// A missing package three deep reports the whole chain that required
// it, root first, and a missing root names no chain.
func TestResolveClosureReportsTheFullPath(t *testing.T) {
	ix := New()
	ix.Add(&Package{Name: "app", Deps: []string{"mid"}})
	ix.Add(&Package{Name: "mid", Deps: []string{"leaf", "low"}})
	ix.Add(&Package{Name: "leaf"})
	ix.Add(&Package{Name: "low", Deps: []string{"gone"}})
	_, err := ix.ResolveClosure([]string{"app"})
	if want := `pkgindex: no package "gone" (required via [app mid low])`; err == nil || err.Error() != want {
		t.Errorf("error = %v, want %s", err, want)
	}
	// The path is the chain to the missing package, not every package
	// visited: leaf, resolved before low, is not in it.
	_, err = ix.ResolveClosure([]string{"leaf", "app"})
	if want := `pkgindex: no package "gone" (required via [app mid low])`; err == nil || err.Error() != want {
		t.Errorf("after a resolved root, error = %v, want %s", err, want)
	}
	if _, err = ix.ResolveClosure([]string{"absent"}); err == nil || err.Error() != `pkgindex: no package "absent" in index` {
		t.Errorf("missing root: %v", err)
	}
}

// TestResolveClosureAllocs pins what resolving the LNNI closure (144
// packages, once per cold start) allocates: its seen set, its result
// list and the sort, growing as they fill: 25. The chain of requiring
// packages is one stack for the whole walk; a path slice per package
// visited read 184.
func TestResolveClosureAllocs(t *testing.T) {
	const want = 25
	ix := StandardIndex()
	got := testing.AllocsPerRun(20, func() {
		if _, err := ix.ResolveClosure([]string{"resnet"}); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("resolving the LNNI closure allocates %v times, want at most %d", got, want)
	}
}
