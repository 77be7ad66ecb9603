// Package poncho reproduces the paper's Poncho toolkit (§3.2): it scans
// function ASTs for imported modules, resolves them against a package
// index into a pinned environment specification, and packs that
// environment into a content-addressed tarball artifact (the conda-pack
// equivalent) that workers cache, share, and unpack once.
package poncho

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/bincode"
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

// The packed manifest is a small binary layout, read by a worker on
// every L1 task, written and read with internal/bincode:
//
//	magic     "PNC" and the format version byte
//	count     uvarint
//	names     count × (uvarint length, bytes), strictly ascending
//	packages  count × (uvarint length, version bytes,
//	                   uvarint installed size, uvarint packed size)
//
// The names come first and alone, so ManifestModules — all a worker
// needs to learn what an environment makes importable — stops at the end
// of the name table. A manifest decodes only if it is exactly what Pack
// writes for what it decodes to.
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
	// The magic, the longest uvarint count, and about 32 bytes a package.
	data := make([]byte, 0, len(manifestMagic)+10+32*len(pkgs))
	data = bincode.AppendUvarint(append(data, manifestMagic[:]...), uint64(len(pkgs)))
	for i, p := range pkgs {
		if i > 0 && p.Name == pkgs[i-1].Name {
			return nil, fmt.Errorf("poncho: packing environment: package %q listed twice", p.Name)
		}
		if p.InstalledSize < 0 || p.PackedSize < 0 {
			return nil, fmt.Errorf("poncho: packing environment: package %q has a negative size", p.Name)
		}
		data = bincode.AppendString(data, p.Name)
	}
	for _, p := range pkgs {
		data = bincode.AppendString(data, p.Version)
		data = bincode.AppendUvarint(data, uint64(p.InstalledSize))
		data = bincode.AppendUvarint(data, uint64(p.PackedSize))
	}
	return content.NewTarball(name, data, s.PackedSize(), s.InstalledSize()), nil
}

// UnpackManifest parses a packed environment back into its spec,
// strictly: anything but the exact bytes Pack writes is an error
// wrapping ErrManifest.
func UnpackManifest(data []byte) (*EnvSpec, error) {
	r, names := readNames(data)
	spec := &EnvSpec{Packages: make([]PinnedPackage, len(names))}
	for i := range spec.Packages {
		p := &spec.Packages[i]
		p.Name = names[i]
		p.Version = r.Str()
		p.InstalledSize = readSize(&r)
		p.PackedSize = readSize(&r)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	return spec, nil
}

// ManifestModules reads only a packed environment's name table: the
// package names it installs, sorted — what a worker does when expanding
// a tarball to learn which modules become importable. The names share
// one copy of the table, so a manifest costs two allocations however
// many packages it lists.
func ManifestModules(data []byte) ([]string, error) {
	r, names := readNames(data)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	return names, nil
}

func readSize(r *bincode.Reader) int64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.Fail(fmt.Errorf("size %d out of range", v))
	}
	return int64(v)
}

// readNames checks the magic, reads the package count and then the name
// table, as substrings of one copy of it, leaving r at the packages.
func readNames(data []byte) (r bincode.Reader, names []string) {
	r = bincode.NewReader(data)
	if [4]byte{r.Byte(), r.Byte(), r.Byte(), r.Byte()} != manifestMagic {
		r.Fail(errors.New("not a packed environment manifest"))
	}
	count := r.Count(minPackageSize)
	start := len(data) - r.Len()
	var prev []byte
	for i := 0; i < count && r.Err() == nil; i++ {
		name := r.Bytes()
		if r.Err() == nil && i > 0 && bytes.Compare(prev, name) >= 0 {
			r.Fail(fmt.Errorf("name %q not after %q", name, prev))
		}
		prev = name
	}
	if r.Err() != nil {
		return r, nil
	}
	// The table is valid; walk it again to cut the names from one copy.
	table := data[start : len(data)-r.Len()]
	copied := string(table)
	names = make([]string, count)
	t := bincode.NewReader(table)
	for i := range names {
		n := len(t.Bytes())
		end := len(table) - t.Len()
		names[i] = copied[end-n : end]
	}
	return r, names
}
