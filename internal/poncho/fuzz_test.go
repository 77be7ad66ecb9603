package poncho

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// FuzzUnpackManifest: manifest bytes reach a worker from the shared
// filesystem and from peers it has not authenticated. No input may
// panic either reader or size an allocation beyond a constant times its
// length; a manifest that decodes is exactly what Pack writes for it;
// and ManifestModules reads the same names UnpackManifest does.
func FuzzUnpackManifest(f *testing.F) {
	var lnni []byte
	for _, app := range []string{"lnni", "examol", "mathx"} {
		_, data := packed(f, appRoots[app]...)
		f.Add(data)
		if app == "lnni" {
			lnni = data
		}
	}
	f.Add(lnni[:len(lnni)/2])
	f.Add(append(slices.Clone(lnni), 0))
	f.Add(manifest(1 << 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// TotalAlloc counts the whole process, the fuzzing engine's own
		// goroutines included; they only ever add, so the least of three
		// readings is the readers'.
		var spec *EnvSpec
		var names []string
		var err, namesErr error
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			spec, err = UnpackManifest(raw)
			names, namesErr = ManifestModules(raw)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// A package costs at least four input bytes and at most a name
		// and a version header, a PinnedPackage and size-class rounding.
		if limit := uint64(32*len(raw) + 4096); least > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(raw), least, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("UnpackManifest error does not wrap ErrManifest: %v", err)
			}
			if namesErr != nil && !errors.Is(namesErr, ErrManifest) {
				t.Fatalf("ManifestModules error does not wrap ErrManifest: %v", namesErr)
			}
			return
		}
		if namesErr != nil {
			t.Fatalf("UnpackManifest decoded what ManifestModules refused: %v", namesErr)
		}
		if len(names) != len(spec.Packages) {
			t.Fatalf("ManifestModules read %d names, UnpackManifest %d packages", len(names), len(spec.Packages))
		}
		for i, p := range spec.Packages {
			if names[i] != p.Name {
				t.Fatalf("name %d: ManifestModules %q, UnpackManifest %q", i, names[i], p.Name)
			}
		}
		obj, err := spec.Pack("env")
		if err != nil {
			t.Fatalf("a decoded manifest does not pack: %v", err)
		}
		if !bytes.Equal(obj.Data, raw) {
			t.Fatalf("Pack∘UnpackManifest changed the bytes:\n in  %x\n out %x", raw, obj.Data)
		}
	})
}
