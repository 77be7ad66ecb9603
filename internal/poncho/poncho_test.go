package poncho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bincode"
	"repro/internal/minipy"
	"repro/internal/pkgindex"
)

func mustFunc(t *testing.T, src, name string) *minipy.Func {
	t.Helper()
	ip := minipy.NewInterp(nil)
	mod, err := minipy.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	env := ip.NewGlobals()
	if err := ip.ExecBlockWithSource(mod.Body, env, src, "m"); err != nil {
		t.Fatal(err)
	}
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return v.(*minipy.Func)
}

func TestScanFunctionDirectImports(t *testing.T) {
	fn := mustFunc(t, `
def f(x):
    import resnet
    from imageproc import normalize
    return normalize(x)
`, "f")
	got := ScanFunction(fn)
	want := []string{"imageproc", "resnet"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ScanFunction = %v, want %v", got, want)
	}
}

func TestScanFunctionTransitiveThroughHelpers(t *testing.T) {
	fn := mustFunc(t, `
def helper(x):
    import chemtools
    return x

def f(x):
    import mathx
    return helper(x)
`, "f")
	got := ScanFunction(fn)
	want := []string{"chemtools", "mathx"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ScanFunction = %v, want %v", got, want)
	}
}

func TestScanHandlesRecursiveHelpers(t *testing.T) {
	fn := mustFunc(t, `
def f(n):
    import jsonx
    if n == 0:
        return 0
    return f(n - 1)
`, "f")
	got := ScanFunction(fn)
	if len(got) != 1 || got[0] != "jsonx" {
		t.Errorf("ScanFunction = %v", got)
	}
}

func TestResolveClosureCounts(t *testing.T) {
	ix := pkgindex.StandardIndex()
	spec, err := Resolve(ix, []string{"resnet"})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's LNNI environment: 144 packages, 572 MB packed, 3.1 GB
	// installed (§4.7).
	if len(spec.Packages) != 144 {
		t.Errorf("resnet closure has %d packages, want 144", len(spec.Packages))
	}
	packedMB := float64(spec.PackedSize()) / (1 << 20)
	if packedMB < 540 || packedMB > 610 {
		t.Errorf("packed size %.0f MB, want ~572 MB", packedMB)
	}
	installedGB := float64(spec.InstalledSize()) / (1 << 30)
	if installedGB < 2.8 || installedGB > 3.4 {
		t.Errorf("installed size %.2f GB, want ~3.1 GB", installedGB)
	}
}

func TestResolveUnknownPackage(t *testing.T) {
	ix := pkgindex.StandardIndex()
	if _, err := Resolve(ix, []string{"nonexistent-pkg"}); err == nil {
		t.Errorf("expected resolve error for unknown package")
	}
}

func TestResolveDeterministic(t *testing.T) {
	ix := pkgindex.StandardIndex()
	a, err := Resolve(ix, []string{"resnet", "mathx"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(ix, []string{"mathx", "resnet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Packages) != len(b.Packages) {
		t.Fatalf("closures differ in size")
	}
	for i := range a.Packages {
		if a.Packages[i] != b.Packages[i] {
			t.Errorf("package %d differs: %v vs %v", i, a.Packages[i], b.Packages[i])
		}
	}
}

// The applications' environments, by the modules their functions
// import: LNNI's inference (§4.7), ExaMol's four functions
// (examples/examol) and the small one the tests and examples use.
var appRoots = map[string][]string{
	"lnni":   {"resnet", "imageproc"},
	"examol": {"chemtools", "quantumsim", "mlpack", "surrogates"},
	"mathx":  {"mathx"},
}

// packed resolves roots against the standard index and packs them.
func packed(t testing.TB, roots ...string) (*EnvSpec, []byte) {
	t.Helper()
	spec, err := Resolve(pkgindex.StandardIndex(), roots)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := spec.Pack("env.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	return spec, obj.Data
}

// repoEnvs is every environment the repo builds: the applications',
// each package's own closure, and the whole index as one environment.
func repoEnvs(t *testing.T) map[string]*EnvSpec {
	t.Helper()
	ix := pkgindex.StandardIndex()
	roots := map[string][]string{"index": ix.Names()}
	for name, r := range appRoots {
		roots[name] = r
	}
	for _, name := range ix.Names() {
		roots["pkg:"+name] = []string{name}
	}
	envs := map[string]*EnvSpec{}
	for name, r := range roots {
		spec, err := Resolve(ix, r)
		if err != nil {
			t.Fatal(err)
		}
		envs[name] = spec
	}
	return envs
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for name, spec := range repoEnvs(t) {
		obj, err := spec.Pack(name + ".tar.gz")
		if err != nil {
			t.Fatal(err)
		}
		if obj.LogicalSize != spec.PackedSize() || obj.UnpackedSize != spec.InstalledSize() {
			t.Errorf("%s: tarball sizes %d/%d, want %d/%d", name, obj.LogicalSize, obj.UnpackedSize, spec.PackedSize(), spec.InstalledSize())
		}
		got, err := UnpackManifest(obj.Data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: round trip changed the spec:\n got  %v\n want %v", name, got, spec)
		}
		modules, err := ManifestModules(obj.Data)
		if err != nil || !slices.Equal(modules, names(spec)) {
			t.Errorf("%s: ManifestModules = %v, %v; want %v", name, modules, err, names(spec))
		}
	}
	lnni, _ := packed(t, appRoots["lnni"]...)
	if len(lnni.Packages) != 144 || !has(lnni, "resnet") || has(lnni, "chemtools") {
		t.Errorf("LNNI environment: %d packages, want 144 with resnet and without chemtools", len(lnni.Packages))
	}
}

// TestPackSortsTheNameTable: Pack sorts by name itself, so a hand-built
// spec in any order packs to the bytes, and the ID, of the sorted one.
func TestPackSortsTheNameTable(t *testing.T) {
	sorted := &EnvSpec{Packages: []PinnedPackage{
		{Name: "alpha", Version: "1.0", InstalledSize: 10, PackedSize: 5},
		{Name: "beta", Version: "", InstalledSize: 0, PackedSize: 0},
		{Name: "gamma", Version: "2.3.4", InstalledSize: 1 << 40, PackedSize: 300},
	}}
	shuffled := &EnvSpec{Packages: []PinnedPackage{sorted.Packages[2], sorted.Packages[0], sorted.Packages[1]}}
	want, err := sorted.Pack("env")
	if err != nil {
		t.Fatal(err)
	}
	got, err := shuffled.Pack("env")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID {
		t.Errorf("an unsorted spec packs to different bytes:\n got  %x\n want %x", got.Data, want.Data)
	}
	if modules, err := ManifestModules(got.Data); err != nil || !slices.Equal(modules, []string{"alpha", "beta", "gamma"}) {
		t.Errorf("name table = %v, %v; want sorted", modules, err)
	}
	if spec, err := UnpackManifest(got.Data); err != nil || !reflect.DeepEqual(spec, sorted) {
		t.Errorf("unpacked %v, %v; want %v", spec, err, sorted)
	}
	if shuffled.Packages[0].Name != "gamma" {
		t.Error("Pack reordered the caller's spec")
	}
}

// TestPackRefusesWhatCannotRoundTrip: a name listed twice or a negative
// size has no manifest that would decode back to it.
func TestPackRefusesWhatCannotRoundTrip(t *testing.T) {
	for _, pkgs := range [][]PinnedPackage{
		{{Name: "a"}, {Name: "b"}, {Name: "a", Version: "2"}},
		{{Name: "a", InstalledSize: -1}},
		{{Name: "a", PackedSize: -1}},
	} {
		if obj, err := (&EnvSpec{Packages: pkgs}).Pack("env"); err == nil {
			t.Errorf("packed %v to %x", pkgs, obj.Data)
		}
	}
}

func TestPackDeterministicID(t *testing.T) {
	ix := pkgindex.StandardIndex()
	s1, _ := Resolve(ix, []string{"resnet"})
	s2, _ := Resolve(ix, []string{"resnet"})
	o1, err := s1.Pack("env")
	if err != nil {
		t.Fatal(err)
	}
	o2, err := s2.Pack("env")
	if err != nil {
		t.Fatal(err)
	}
	if o1.ID != o2.ID {
		t.Errorf("same environment packs to different content IDs")
	}
}

// manifest assembles raw manifest bytes: the magic, then each part as
// is ([]byte) or as a uvarint (int).
func manifest(parts ...any) []byte {
	b := append([]byte(nil), manifestMagic[:]...)
	for _, p := range parts {
		switch p := p.(type) {
		case []byte:
			b = append(b, p...)
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		}
	}
	return b
}

// corruptManifest is bytes no Pack writes and what is wrong with them;
// inNames marks a fault in the header or the name table, which
// ManifestModules must refuse as well.
type corruptManifest struct {
	what    string
	data    []byte
	inNames bool
}

func corruptManifests(t *testing.T) []corruptManifest {
	t.Helper()
	spec, real := packed(t, appRoots["lnni"]...)
	cases := []corruptManifest{
		{"empty", nil, true},
		{"trailing byte", append(slices.Clone(real), 0), false},
		{"count larger than the input", manifest(1 << 40), true},
		{"count larger than what follows", manifest(3, 1, []byte("a"), 0, 0, 0), true},
		{"JSON manifest", []byte(`{"packages": [{"name": "mathx", "version": "1.0", "installed_size": 1, "packed_size": 1}]}`), true},
		{"other version", append([]byte{'P', 'N', 'C', 2}, manifest(0)[4:]...), true},
		{"count not in its shortest form", manifest([]byte{0x80, 0}), true},
		{"size not in its shortest form", manifest(1, 1, []byte("a"), 0, []byte{0x81, 0}, 0), false},
		{"size past int64", manifest(1, 1, []byte("a"), 0, 0, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}), false},
		{"names out of order", manifest(2, 1, []byte("b"), 1, []byte("a"), 0, 0, 0, 0, 0, 0), true},
		{"name listed twice", manifest(2, 1, []byte("a"), 1, []byte("a"), 0, 0, 0, 0, 0, 0), true},
		{"name runs past the end", manifest(1, 9, []byte("abc")), true},
	}
	// Every proper prefix of a real manifest; those that end before the
	// package section are ManifestModules' to refuse too.
	tableEnd := len(real)
	for _, p := range spec.Packages {
		tableEnd -= len(binary.AppendUvarint(binary.AppendUvarint(bincode.AppendString(nil, p.Version), uint64(p.InstalledSize)), uint64(p.PackedSize)))
	}
	for n := 0; n < len(real); n++ {
		cases = append(cases, corruptManifest{fmt.Sprintf("truncated to %d of %d bytes", n, len(real)), real[:n], n < tableEnd})
	}
	return cases
}

func TestUnpackManifestCorrupt(t *testing.T) {
	for _, c := range corruptManifests(t) {
		if spec, err := UnpackManifest(c.data); !errors.Is(err, ErrManifest) {
			t.Errorf("%s: UnpackManifest = %v, %v; want an ErrManifest", c.what, spec, err)
		}
		names, err := ManifestModules(c.data)
		if c.inNames && !errors.Is(err, ErrManifest) {
			t.Errorf("%s: ManifestModules = %v, %v; want an ErrManifest", c.what, names, err)
		}
		if !c.inNames && err != nil {
			t.Errorf("%s: ManifestModules read past the name table: %v", c.what, err)
		}
	}
	// A count the bytes cannot hold is refused as read, before any name.
	if _, err := ManifestModules(manifest(1<<40, 1, []byte("a"))); err == nil || !strings.Contains(err.Error(), "count 1099511627776") {
		t.Errorf("oversized count: %v, want it refused at the count", err)
	}
}

func TestEndToEndDiscoverPipeline(t *testing.T) {
	fn := mustFunc(t, `
def infer(seed, n):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)
`, "infer")
	ix := pkgindex.StandardIndex()
	spec, err := Resolve(ix, ScanFunction(fn))
	if err != nil {
		t.Fatal(err)
	}
	if !has(spec, "resnet") || !has(spec, "tensorstore") || !has(spec, "mlrt-000") {
		t.Errorf("LNNI env missing transitive deps: %d packages", len(spec.Packages))
	}
}

func TestRuntimeModulesExcluded(t *testing.T) {
	fn := mustFunc(t, `
def f(x):
    import vine_runtime
    import vine_data
    import mathx
    return x
`, "f")
	got := ScanFunction(fn)
	if len(got) != 1 || got[0] != "mathx" {
		t.Errorf("ScanFunction = %v, want [mathx] only", got)
	}
}

// names is the spec's package names in order: what its manifest lists.
func names(s *EnvSpec) []string {
	out := make([]string, len(s.Packages))
	for i, p := range s.Packages {
		out[i] = p.Name
	}
	return out
}

func has(s *EnvSpec, name string) bool { return slices.Contains(names(s), name) }
