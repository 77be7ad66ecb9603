// Package pkgindex provides a synthetic software package index — the
// stand-in for the Conda channel the paper's Poncho toolkit resolves
// environments against. Packages have versions, dependency edges, and
// installed/packed sizes, so environment resolution produces realistic
// transitive closures and the LNNI environment reproduces the paper's
// numbers: 144 packages, 572 MB packed, 3.1 GB unpacked (§4.7).
package pkgindex

import (
	"fmt"
	"maps"
	"sort"
	"sync"
)

// Package describes one installable package version.
type Package struct {
	Name string
	// Version is a semantic-ish version string; the index stores one
	// resolved version per name (like a solved Conda environment).
	Version string
	// Deps are the names of directly required packages.
	Deps []string
	// InstalledSize is bytes on disk once installed.
	InstalledSize int64
	// PackedSize is bytes this package contributes to a conda-pack
	// style tarball (compressed).
	PackedSize int64
}

// Index is a set of resolvable packages.
type Index struct {
	pkgs map[string]*Package
}

// New creates an empty index.
func New() *Index {
	return &Index{pkgs: map[string]*Package{}}
}

// Add registers a package, replacing any same-named entry.
func (ix *Index) Add(p *Package) { ix.pkgs[p.Name] = p }

// Names returns all package names, sorted.
func (ix *Index) Names() []string {
	out := make([]string, 0, len(ix.pkgs))
	for n := range ix.pkgs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResolveClosure computes the transitive dependency closure of roots,
// returning packages sorted by name. Unknown packages are an error;
// dependency cycles are tolerated (each package appears once).
func (ix *Index) ResolveClosure(roots []string) ([]*Package, error) {
	seen := map[string]bool{}
	var out []*Package
	// path is the chain of packages requiring the one visited, a single
	// stack for the whole walk; only a missing package's error copies it.
	var path []string
	var visit func(name string) error
	visit = func(name string) error {
		if seen[name] {
			return nil
		}
		p, ok := ix.pkgs[name]
		if !ok {
			if len(path) == 0 {
				return fmt.Errorf("pkgindex: no package %q in index", name)
			}
			return fmt.Errorf("pkgindex: no package %q (required via %v)", name, path)
		}
		seen[name] = true
		path = append(path, name)
		for _, d := range p.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		out = append(out, p)
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
)

// StandardIndex returns an index over the deterministic synthetic
// package universe used throughout this repository. It contains:
//
//   - The ML inference stack the LNNI application imports (resnet →
//     tensorstore → ... ) whose closure is exactly 144 packages totaling
//     572 MB packed / 3.1 GB installed, matching §4.7 of the paper.
//   - The chemistry/ML stack ExaMol imports (chemtools, mlpack,
//     quantumsim), a smaller environment.
//   - Assorted small utility packages.
//
// The packages are built once per process and shared by every index
// StandardIndex returns, so they must not be modified; each index is a
// map of its own, and Add on one changes no other.
func StandardIndex() *Index {
	return &Index{pkgs: maps.Clone(standard())}
}

// standard is the standard package table, built on first use.
var standard = sync.OnceValue(func() map[string]*Package {
	ix := New()

	// Utility packages available to any environment.
	ix.Add(&Package{Name: "mathx", Version: "2.1.0", InstalledSize: 3 * mb, PackedSize: 800 * kb})
	ix.Add(&Package{Name: "timex", Version: "1.0.4", InstalledSize: 1 * mb, PackedSize: 300 * kb})
	ix.Add(&Package{Name: "randomx", Version: "1.2.0", InstalledSize: 2 * mb, PackedSize: 500 * kb})
	ix.Add(&Package{Name: "jsonx", Version: "3.0.1", InstalledSize: 2 * mb, PackedSize: 500 * kb})

	// The ML inference stack. resnet pulls tensorstore and imageproc;
	// tensorstore pulls a deep runtime tree of mlrt-* packages. The
	// counts and sizes are tuned so the LNNI closure is 144 packages,
	// ~572 MB packed, ~3.1 GB installed.
	nRT := 138 // mlrt-000 .. mlrt-137
	var rtNames []string
	for i := 0; i < nRT; i++ {
		name := fmt.Sprintf("mlrt-%03d", i)
		rtNames = append(rtNames, name)
		var deps []string
		if i > 0 && i%7 == 0 {
			deps = append(deps, fmt.Sprintf("mlrt-%03d", i-1))
		}
		ix.Add(&Package{
			Name:          name,
			Version:       fmt.Sprintf("0.%d.%d", i%10, i%4),
			Deps:          deps,
			InstalledSize: 18 * mb,
			PackedSize:    3450 * kb,
		})
	}
	ix.Add(&Package{
		Name: "tensorstore", Version: "2.14.0",
		Deps:          rtNames,
		InstalledSize: 520 * mb, PackedSize: 76 * mb,
	})
	ix.Add(&Package{
		Name: "imageproc", Version: "9.4.0",
		Deps:          []string{"mathx", "timex"},
		InstalledSize: 60 * mb, PackedSize: 12 * mb,
	})
	ix.Add(&Package{
		Name: "weightstore", Version: "1.3.2",
		InstalledSize: 30 * mb, PackedSize: 8 * mb,
	})
	ix.Add(&Package{
		Name: "resnet", Version: "50.1.0",
		Deps:          []string{"tensorstore", "imageproc", "weightstore"},
		InstalledSize: 40 * mb, PackedSize: 10 * mb,
	})

	// The chemistry stack for ExaMol.
	ix.Add(&Package{
		Name: "chemtools", Version: "2023.9.1",
		Deps:          []string{"mathx", "jsonx"},
		InstalledSize: 180 * mb, PackedSize: 45 * mb,
	})
	ix.Add(&Package{
		Name: "quantumsim", Version: "7.1.0",
		Deps:          []string{"mathx"},
		InstalledSize: 95 * mb, PackedSize: 24 * mb,
	})
	ix.Add(&Package{
		Name: "mlpack", Version: "1.11.2",
		Deps:          []string{"mathx", "randomx"},
		InstalledSize: 140 * mb, PackedSize: 35 * mb,
	})
	ix.Add(&Package{
		Name: "surrogates", Version: "0.9.0",
		Deps:          []string{"mlpack"},
		InstalledSize: 25 * mb, PackedSize: 6 * mb,
	})
	return ix.pkgs
})
