package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one vinelint check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers port mechanically if
// the dependency ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	// Suffixes restricts the analyzer to packages whose import path
	// ends in one of these (path-segment aligned). Empty means every
	// target package.
	Suffixes []string
	Run      func(*Pass)
}

// Applies reports whether the analyzer covers the package path.
func (a *Analyzer) Applies(pkgPath string) bool {
	if len(a.Suffixes) == 0 {
		return true
	}
	for _, s := range a.Suffixes {
		if hasPathSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// hasPathSuffix reports whether an import path ends in suffix, aligned
// on a path segment.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityError,
	})
}

// Severity levels for diagnostics. Every analyzer finding gates the
// build (error); pragma misuse does too — a suppression that cannot
// explain itself is worse than the finding.
const (
	SeverityError = "error"
)

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Severity string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Result is the outcome of running a suite over a program: the
// findings that survived pragma suppression, the count of findings an
// explicit pragma absorbed, and pragma misuse (malformed, unknown
// name, missing justification, or stale — suppressing nothing).
type Result struct {
	Diagnostics  []Diagnostic
	Suppressed   int
	PragmaErrors []Diagnostic
}

// Clean reports whether the run produced nothing actionable.
func (r *Result) Clean() bool {
	return len(r.Diagnostics) == 0 && len(r.PragmaErrors) == 0
}

// RunAnalyzers applies every analyzer to the program's target packages
// and resolves pragma suppressions across the whole run.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) *Result {
	var diags []Diagnostic
	for _, pkg := range prog.Target {
		for _, a := range analyzers {
			if !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}

	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var pragmas []*pragma
	var pragmaErrs []Diagnostic
	for _, pkg := range prog.Target {
		ps, errs := collectPragmas(prog.Fset, pkg, known)
		pragmas = append(pragmas, ps...)
		pragmaErrs = append(pragmaErrs, errs...)
	}

	res := &Result{PragmaErrors: pragmaErrs}
	for _, d := range diags {
		if pr := matchPragma(pragmas, d); pr != nil {
			pr.used++
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	for _, pr := range pragmas {
		if pr.used == 0 {
			res.PragmaErrors = append(res.PragmaErrors, Diagnostic{
				Analyzer: "pragma",
				Pos:      pr.pos,
				Message:  fmt.Sprintf("stale //vinelint:%s pragma: it suppresses no finding", pr.name),
				Severity: SeverityError,
			})
		}
	}
	sortDiags(res.Diagnostics)
	sortDiags(res.PragmaErrors)
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return ds[i].Message < ds[j].Message
	})
}

// InspectPkg walks every file of the pass's package.
func (p *Pass) InspectPkg(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
