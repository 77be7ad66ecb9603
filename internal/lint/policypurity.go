package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// policypurity enforces the purity contract of the scheduling-policy
// core (DESIGN.md §9): the package both engines replay decisions from
// may not observe wall clocks, randomness, the OS, goroutine
// synchronization, or the wire protocol, may not hold package-level
// mutable state, and may not reach time.Now or math/rand through any
// function it calls in-module.
var policypurity = &Analyzer{
	Name: "policypurity",
	Doc:  "internal/policy must stay pure and deterministic",
	Suffixes: []string{
		"internal/policy",
	},
	Run: runPolicyPurity,
}

// purityBannedImports are import paths (or path suffixes, for
// module-internal packages) the policy core may not depend on.
var purityBannedImports = []string{
	"time", "math/rand", "math/rand/v2", "os", "sync", "internal/proto",
}

func runPolicyPurity(pass *Pass) {
	pkg := pass.Pkg

	// 1. Banned imports.
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, banned := range purityBannedImports {
				if path == banned || strings.HasSuffix(path, "/"+banned) {
					pass.Reportf(imp.Pos(), "policy core must not import %q (purity contract: decisions depend only on the ClusterView)", path)
				}
			}
		}
	}

	// 2. Package-level mutable state. Any top-level var is flagged:
	// even a write-once table could be mutated by a future edit, and
	// the policy core has no legitimate global state.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pass.Reportf(name.Pos(), "policy core must not declare package-level state (%s); thread it through the ClusterView", name.Name)
				}
			}
		}
	}

	// 3. Call-graph reachability of time.Now / math/rand: follow
	// static calls out of every policy function through module-internal
	// code. The import ban already rules out direct calls; this catches
	// impurity smuggled in through a helper package.
	seen := map[*types.Func]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if root == nil {
				continue
			}
			if callee, chain := findImpureCall(pass.Prog, pkg, fd, nil, seen); callee != nil {
				pass.Reportf(fd.Name.Pos(), "%s reaches %s (via %s); the policy core must not observe clocks or randomness",
					fd.Name.Name, callee.FullName(), strings.Join(chain, " -> "))
			}
		}
	}
}

// impureCallee reports whether fn is one of the banned leaf calls.
func impureCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "time":
		return fn.Name() == "Now"
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}

// findImpureCall walks the static call graph from fd. It returns the
// banned callee and the call chain that reaches it, or nil. seen
// memoizes functions already proven clean (or currently on the stack,
// which breaks recursion cycles).
func findImpureCall(prog *Program, pkg *Package, fd *ast.FuncDecl, chain []string, seen map[*types.Func]bool) (*types.Func, []string) {
	var found *types.Func
	var foundChain []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(pkg.Info, call)
		if callee == nil {
			return true
		}
		if impureCallee(callee) {
			found = callee
			foundChain = append(chain, fd.Name.Name)
			return false
		}
		if seen[callee] {
			return true
		}
		seen[callee] = true
		decl, declPkg := prog.FuncDecl(callee)
		if decl == nil || decl.Body == nil {
			return true // out-of-module or bodiless: boundary of the walk
		}
		if c, cc := findImpureCall(prog, declPkg, decl, append(chain, fd.Name.Name), seen); c != nil {
			found, foundChain = c, cc
			return false
		}
		return true
	})
	return found, foundChain
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes (plain calls and concrete method calls; interface
// dispatch and function values resolve to nil). A call through a
// generic instantiation — plane.Submit on a TenantPlane[T], or
// NewTenantPlane[T](…) — resolves to the declared generic function
// (types.Func.Origin), the one object that has a body to follow.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // explicit instantiation: F[T](…)
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Concrete method call; interface methods have no body and
			// their declaring type is an interface.
			fn, _ := sel.Obj().(*types.Func)
			if fn != nil && !isInterfaceRecv(fn) {
				return fn.Origin()
			}
			return nil
		}
		id = fun.Sel // package-qualified call: pkg.Fn
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || isInterfaceRecv(fn) {
		return nil
	}
	return fn.Origin()
}

func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
