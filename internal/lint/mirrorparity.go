package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mirrorparity enforces the fidelity contract's coverage half
// (DESIGN.md §9, §16): every decision entry point the policy core
// exports must be wired into BOTH engines — the real manager and the
// simulator — or the differential harness is comparing traces that one
// engine can never emit. PR 6's L3-commitment drift hid exactly this
// way: a decision modeled in one engine only stays latent until a
// workload happens to exercise it.
//
// A decision entry point is an exported package-level function or
// exported method in internal/policy whose name starts with Plan,
// Place, Admit, Next, or Pick, or that takes a *Recorder parameter
// (the recording decision shape, e.g. NoteRefResult). The analyzer
// computes, for each engine, the set of policy functions statically
// reachable from that engine's packages — direct references plus
// policy-internal call chains (PlanTaskBatchInto -> PlanTask ->
// PlanStageAll -> PickSource all count as reached through the batch
// entry) — and flags entry points one side cannot reach. A policy
// function referenced from internal/shardplane, the scheduler both
// engines are shells of, counts as reached by each engine package that
// imports it. A deliberately one-sided entry point carries
// //vinelint:ignore mirrorparity with a justification.
var mirrorparity = &Analyzer{
	Name: "mirrorparity",
	Doc:  "every exported policy decision entry point is referenced by both the manager and the simulator",
	Suffixes: []string{
		"internal/policy",
	},
	Run: runMirrorParity,
}

// mirrorEngineSuffixes names the two engine package suffixes whose
// parity the analyzer proves; mirrorCoreSuffix, the shared core whose
// policy references count for each engine built on it.
var (
	mirrorEngineSuffixes = []string{"internal/manager", "internal/sim"}
	mirrorCoreSuffix     = "internal/shardplane"
)

func runMirrorParity(pass *Pass) {
	// Engine packages that import this policy package. Without both
	// sides loaded there is no basis to judge parity — running vinelint
	// on ./internal/policy alone must not fabricate findings.
	engines := map[string][]*Package{}
	for _, suffix := range mirrorEngineSuffixes {
		for _, pkg := range pass.Prog.Target {
			if pkg.Info == nil || !hasPathSuffix(pkg.Path, suffix) {
				continue
			}
			if importsPackage(pkg.Types, pass.Pkg.Types) {
				engines[suffix] = append(engines[suffix], pkg)
			}
		}
	}
	for _, suffix := range mirrorEngineSuffixes {
		if len(engines[suffix]) == 0 {
			return
		}
	}

	entries := decisionEntryPoints(pass.Pkg)
	if len(entries) == 0 {
		return
	}

	for _, suffix := range mirrorEngineSuffixes {
		reached := map[*types.Func]bool{}
		for _, epkg := range engines[suffix] {
			seedPolicyRefs(pass, epkg, reached)
			for _, core := range pass.Prog.Target {
				if core.Info != nil && hasPathSuffix(core.Path, mirrorCoreSuffix) && importsPackage(epkg.Types, core.Types) {
					seedPolicyRefs(pass, core, reached)
				}
			}
		}
		// Close over policy-internal calls: a policy function reached by
		// the engine drags in everything it calls within the package.
		var grow func(fn *types.Func)
		grow = func(fn *types.Func) {
			decl, declPkg := pass.Prog.FuncDecl(fn)
			if decl == nil || decl.Body == nil || declPkg == nil || declPkg.Types != pass.Pkg.Types {
				return
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(declPkg.Info, call)
				if callee == nil || callee.Pkg() != pass.Pkg.Types || reached[callee] {
					return true
				}
				reached[callee] = true
				grow(callee)
				return true
			})
		}
		for fn := range reached {
			grow(fn)
		}

		for _, e := range entries {
			if !reached[e.fn] {
				pass.Reportf(e.pos, "policy decision entry point %s is not referenced by %s; wire it into both engines (fidelity contract) or justify with //vinelint:ignore mirrorparity", e.fn.Name(), suffix)
			}
		}
	}
}

type entryPoint struct {
	fn  *types.Func
	pos token.Pos
}

// decisionEntryPoints collects the policy package's exported decision
// entry points, in declaration order.
func decisionEntryPoints(pkg *Package) []entryPoint {
	var out []entryPoint
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !isDecisionEntryPoint(pkg, fn) {
				continue
			}
			out = append(out, entryPoint{fn: fn, pos: fd.Name.Pos()})
		}
	}
	return out
}

// isDecisionEntryPoint classifies one exported policy function.
func isDecisionEntryPoint(pkg *Package, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	// Methods on unexported types are not part of the decision API.
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && !named.Obj().Exported() {
			return false
		}
	}
	for _, prefix := range []string{"Plan", "Place", "Admit", "Next", "Pick"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	// Recording decisions: any exported function taking a *Recorder.
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		ptr, ok := params.At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Name() == "Recorder" && named.Obj().Pkg() == pkg.Types {
			return true
		}
	}
	return false
}

// seedPolicyRefs adds every policy function the engine package
// references (calls, assigns, passes as a value) to reached. A method
// of an instantiated generic type counts as its declaration
// (Origin): plane.Submit on a TenantPlane[dispatch] reaches
// TenantPlane.Submit, and through its body everything that calls.
func seedPolicyRefs(pass *Pass, epkg *Package, reached map[*types.Func]bool) {
	for _, obj := range epkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if ok && fn.Pkg() == pass.Pkg.Types {
			reached[fn.Origin()] = true
		}
	}
}

// importsPackage reports whether pkg directly imports target.
func importsPackage(pkg, target *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp == target {
			return true
		}
	}
	return false
}
