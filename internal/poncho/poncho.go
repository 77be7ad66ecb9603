// Package poncho reproduces the paper's Poncho toolkit (§3.2): it scans
// function ASTs for imported modules, resolves them against a package
// index into a pinned environment specification, and packs that
// environment into a content-addressed tarball artifact (the conda-pack
// equivalent) that workers cache, share, and unpack once.
package poncho

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/content"
	"repro/internal/minipy"
	"repro/internal/pkgindex"
)

// EnvSpec is a resolved software environment: a pinned, sorted package
// list with size accounting.
type EnvSpec struct {
	Packages []PinnedPackage
}

// PinnedPackage is one resolved package in an environment.
type PinnedPackage struct {
	Name          string
	Version       string
	InstalledSize int64
	PackedSize    int64
}

// RuntimeModules are provided by the worker/library runtime itself
// (sandbox access, bound input data) and are never software
// dependencies.
var RuntimeModules = map[string]bool{
	"vine_runtime": true,
	"vine_data":    true,
}

// ScanFunction discovers the modules a function needs: import
// statements anywhere in its code (including nested defs and lambdas),
// modules captured by reference from its defining module, and imports
// of any captured helper functions, transitively. Runtime-provided
// modules (vine_runtime, vine_data) are excluded.
func ScanFunction(fn *minipy.Func) []string {
	seenMods := map[string]bool{}
	seenFuncs := map[*minipy.Func]bool{}
	var scan func(f *minipy.Func)
	scan = func(f *minipy.Func) {
		if f == nil || seenFuncs[f] {
			return
		}
		seenFuncs[f] = true
		for _, m := range minipy.ImportedModules(f) {
			seenMods[m] = true
		}
		closure, globals, _ := minipy.ResolveFree(f)
		for _, m := range []map[string]minipy.Value{closure, globals} {
			for _, v := range m {
				switch x := v.(type) {
				case *minipy.ModuleVal:
					seenMods[x.Name] = true
				case *minipy.Func:
					scan(x)
				}
			}
		}
	}
	scan(fn)
	out := make([]string, 0, len(seenMods))
	for m := range seenMods {
		if RuntimeModules[m] {
			continue
		}
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Resolve turns a list of required module names into a pinned
// environment by computing the transitive closure against the index.
func Resolve(ix *pkgindex.Index, modules []string) (*EnvSpec, error) {
	pkgs, err := ix.ResolveClosure(modules)
	if err != nil {
		return nil, fmt.Errorf("poncho: %w", err)
	}
	spec := &EnvSpec{}
	for _, p := range pkgs {
		spec.Packages = append(spec.Packages, PinnedPackage{
			Name:          p.Name,
			Version:       p.Version,
			InstalledSize: p.InstalledSize,
			PackedSize:    p.PackedSize,
		})
	}
	return spec, nil
}

// ResolveForFunction is the full Discover pipeline for software
// dependencies: scan the function, then resolve what it imports.
func ResolveForFunction(ix *pkgindex.Index, fn *minipy.Func) (*EnvSpec, error) {
	return Resolve(ix, ScanFunction(fn))
}

// PackedSize is the tarball size of the environment in bytes.
func (s *EnvSpec) PackedSize() int64 {
	var total int64
	for _, p := range s.Packages {
		total += p.PackedSize
	}
	return total
}

// InstalledSize is the unpacked on-disk size of the environment.
func (s *EnvSpec) InstalledSize() int64 {
	var total int64
	for _, p := range s.Packages {
		total += p.InstalledSize
	}
	return total
}

// Modules returns the installed package names, sorted.
func (s *EnvSpec) Modules() []string {
	out := make([]string, 0, len(s.Packages))
	for _, p := range s.Packages {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the environment installs the named package.
func (s *EnvSpec) Has(name string) bool {
	for _, p := range s.Packages {
		if p.Name == name {
			return true
		}
	}
	return false
}

// The packed manifest is a small binary layout, read by a worker on
// every L1 task:
//
//	magic     "PNC" and the format version byte
//	count     uvarint
//	names     count × (uvarint length, bytes), strictly ascending
//	packages  count × (uvarint length, version bytes,
//	                   uvarint installed size, uvarint packed size)
//
// The names come first and alone, so ManifestModules — all a worker
// needs to learn what an environment makes importable — stops at the end
// of the name table. Every encoding is canonical: a manifest decodes
// only if it is exactly what Pack writes for what it decodes to.
var manifestMagic = [4]byte{'P', 'N', 'C', 1}

// minPackageSize is the fewest bytes one package takes: an empty name,
// an empty version and two one-byte sizes.
const minPackageSize = 4

// ErrManifest is wrapped by every manifest decoding error: the bytes are
// not an environment Pack wrote.
var ErrManifest = errors.New("poncho: unreadable environment manifest")

// Pack produces the environment tarball artifact: a content-addressed
// object whose data is the binary manifest of the environment, its
// packages sorted by name whatever the spec's order, and whose logical
// packed/unpacked sizes are the modeled sizes, so caches and transfer
// models charge what a real conda-pack tarball would. A package listed
// twice or a negative size is an error: no manifest decodes to either.
func (s *EnvSpec) Pack(name string) (*content.Object, error) {
	pkgs := slices.Clone(s.Packages)
	slices.SortFunc(pkgs, func(a, b PinnedPackage) int { return strings.Compare(a.Name, b.Name) })
	data := make([]byte, 0, len(manifestMagic)+binary.MaxVarintLen64+32*len(pkgs))
	data = binary.AppendUvarint(append(data, manifestMagic[:]...), uint64(len(pkgs)))
	for i, p := range pkgs {
		if i > 0 && p.Name == pkgs[i-1].Name {
			return nil, fmt.Errorf("poncho: packing environment: package %q listed twice", p.Name)
		}
		if p.InstalledSize < 0 || p.PackedSize < 0 {
			return nil, fmt.Errorf("poncho: packing environment: package %q has a negative size", p.Name)
		}
		data = appendStr(data, p.Name)
	}
	for _, p := range pkgs {
		data = appendStr(data, p.Version)
		data = binary.AppendUvarint(data, uint64(p.InstalledSize))
		data = binary.AppendUvarint(data, uint64(p.PackedSize))
	}
	return content.NewTarball(name, data, s.PackedSize(), s.InstalledSize()), nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// UnpackManifest parses a packed environment back into its spec,
// strictly: anything but the exact bytes Pack writes is an error
// wrapping ErrManifest.
func UnpackManifest(data []byte) (*EnvSpec, error) {
	r := manifestReader{b: data}
	names := r.names()
	spec := &EnvSpec{Packages: make([]PinnedPackage, len(names))}
	for i := range spec.Packages {
		p := &spec.Packages[i]
		p.Name = names[i]
		p.Version = string(r.bytes("version"))
		p.InstalledSize = r.size("installed size")
		p.PackedSize = r.size("packed size")
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ManifestModules reads only a packed environment's name table: the
// package names it installs, sorted — what a worker does when expanding
// a tarball to learn which modules become importable. The names share
// one copy of the table, so a manifest costs two allocations however
// many packages it lists.
func ManifestModules(data []byte) ([]string, error) {
	r := manifestReader{b: data}
	names := r.names()
	return names, r.err
}

// manifestReader is a bounds-checked cursor over a packed manifest.
// Errors stick: after the first failure every read returns zero values,
// so decoders check err once at the end.
type manifestReader struct {
	b   []byte
	off int
	err error
}

func (r *manifestReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d of %d)", ErrManifest, fmt.Sprintf(format, args...), r.off, len(r.b))
	}
}

// uvarint reads a uvarint in its shortest encoding, the only one Pack
// writes: a longer one ends in a zero byte.
func (r *manifestReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad %s", what)
		return 0
	}
	r.off += n
	return v
}

// bytes reads a length-prefixed field, aliasing the manifest.
func (r *manifestReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("%s of %d bytes runs past the end", what, n)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *manifestReader) size(what string) int64 {
	v := r.uvarint(what)
	if v > math.MaxInt64 {
		r.fail("%s %d out of range", what, v)
		return 0
	}
	return int64(v)
}

// done reports the sticky error, or bytes left after the last package:
// a manifest is exactly its fields.
func (r *manifestReader) done() error {
	if r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// names checks the magic, reads the package count — refusing one the
// rest of the manifest cannot hold, so no count sizes an allocation
// unchecked — and then the name table, as substrings of one copy of it.
func (r *manifestReader) names() []string {
	if len(r.b) < len(manifestMagic) || [4]byte(r.b) != manifestMagic {
		r.fail("not a packed environment manifest")
		return nil
	}
	r.off = len(manifestMagic)
	count := r.uvarint("package count")
	if r.err == nil && count > uint64(len(r.b)-r.off)/minPackageSize {
		r.fail("package count %d larger than the manifest", count)
	}
	if r.err != nil {
		return nil
	}
	start := r.off
	var prev []byte
	for i := uint64(0); i < count && r.err == nil; i++ {
		name := r.bytes("name")
		if r.err == nil && i > 0 && bytes.Compare(prev, name) >= 0 {
			r.fail("name %q not after %q", name, prev)
		}
		prev = name
	}
	if r.err != nil {
		return nil
	}
	// The table is valid; walk it again to cut the names from one copy.
	table := string(r.b[start:r.off])
	names := make([]string, count)
	off := 0
	for i := range names {
		n, w := binary.Uvarint(r.b[start+off:])
		off += w
		names[i] = table[off : off+int(n)]
		off += int(n)
	}
	return names
}
