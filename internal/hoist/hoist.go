// Package hoist implements the paper's future work (§6): automatic
// discovery of a function's reusable context. It analyzes a function's
// AST and splits its body into a hoistable prefix — imports and
// assignments that depend only on other hoisted names and builtins, the
// "expensive but deterministic operations" of the paper's code-hoisting
// analogy (§2.1.3) — and the per-invocation remainder. The prefix
// becomes a generated context-setup function; the remainder becomes the
// rewritten invocation body that reads the hoisted state from the
// shared library namespace.
//
// The analysis is deliberately conservative, so the transformation is
// semantics-preserving under one assumption the paper also makes:
// module functions used during setup (loading models, opening datasets)
// are deterministic.
//
//   - Only a prefix of the body is considered: no statement is
//     reordered past another.
//   - A statement hoists only if every free name it reads is a builtin
//     or was bound by an earlier hoisted statement. Reads of arbitrary
//     module globals do NOT hoist (an invocation may mutate them
//     between calls).
//   - Only imports and simple assignments hoist; control flow, calls
//     evaluated for effect, and anything touching the parameters stop
//     the scan.
package hoist

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/minipy"
)

// Result describes a hoisting split.
type Result struct {
	// FuncName is the original function's name.
	FuncName string
	// SetupName is the generated setup function's name.
	SetupName string
	// SetupSource is the generated context-setup function: the hoisted
	// prefix wrapped in a def, with `global` declarations so the
	// hoisted bindings land in the shared library namespace.
	SetupSource string
	// BodySource is the rewritten function: the original minus the
	// hoisted prefix, with `global` declarations for the hoisted names
	// it uses.
	BodySource string
	// Hoisted lists the names bound by the hoisted prefix, sorted.
	Hoisted []string
	// HoistedStmts counts the statements moved into the setup.
	HoistedStmts int
}

// Hoistable reports whether the split found anything to hoist.
func (r *Result) Hoistable() bool { return r.HoistedStmts > 0 }

// Split analyzes fn and produces the setup/body split. It returns a
// non-nil Result even when nothing hoists (Hoistable() reports false);
// it errors only for functions that cannot be analyzed at all
// (lambdas, builtins).
func Split(fn *minipy.Func) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("hoist: nil function")
	}
	if fn.Expr != nil {
		return nil, fmt.Errorf("hoist: cannot split a lambda (its whole body is one expression)")
	}
	if fn.Body == nil {
		return nil, fmt.Errorf("hoist: function %q has no analyzable body", fn.Name)
	}
	name := fn.Name
	if name == "" {
		name = "fn"
	}

	params := map[string]bool{}
	for _, p := range fn.Params {
		params[p.Name] = true
	}

	// Scan the prefix.
	safe := map[string]bool{} // names bound by hoisted statements
	var hoisted []minipy.Stmt
	body := fn.Body
	// Skip a leading docstring: it stays with the body.
	start := 0
	if len(body) > 0 {
		if es, ok := body[0].(*minipy.ExprStmt); ok {
			if _, isDoc := es.Value.(*minipy.StringLit); isDoc {
				start = 1
			}
		}
	}
	idx := start
	for ; idx < len(body); idx++ {
		st := body[idx]
		if !stmtHoistable(st, params, safe) {
			break
		}
		bindStmt(st, safe)
		hoisted = append(hoisted, st)
	}

	res := &Result{
		FuncName:     name,
		SetupName:    name + "_auto_context",
		HoistedStmts: len(hoisted),
	}
	for n := range safe {
		res.Hoisted = append(res.Hoisted, n)
	}
	sort.Strings(res.Hoisted)
	if len(hoisted) == 0 {
		return res, nil
	}

	// Generate the setup function.
	var setup strings.Builder
	fmt.Fprintf(&setup, "def %s():\n", res.SetupName)
	if len(res.Hoisted) > 0 {
		fmt.Fprintf(&setup, "    global %s\n", strings.Join(res.Hoisted, ", "))
	}
	for _, st := range hoisted {
		setup.WriteString(indent(minipy.PrintStmt(st), "    "))
	}
	res.SetupSource = setup.String()

	// Generate the rewritten body: original signature, global
	// declarations for the hoisted names, then the remaining
	// statements.
	remaining := append(append([]minipy.Stmt{}, body[:start]...), body[idx:]...)
	var rewritten strings.Builder
	fmt.Fprintf(&rewritten, "def %s(%s):\n", name, paramList(fn))
	if len(res.Hoisted) > 0 {
		fmt.Fprintf(&rewritten, "    global %s\n", strings.Join(res.Hoisted, ", "))
	}
	if len(remaining) == 0 {
		rewritten.WriteString("    return None\n")
	} else {
		for _, st := range remaining {
			rewritten.WriteString(indent(minipy.PrintStmt(st), "    "))
		}
	}
	res.BodySource = rewritten.String()

	// The generated sources must parse — guard against printer gaps.
	if _, err := minipy.Parse(res.SetupSource); err != nil {
		return nil, fmt.Errorf("hoist: generated setup does not parse: %w", err)
	}
	if _, err := minipy.Parse(res.BodySource); err != nil {
		return nil, fmt.Errorf("hoist: generated body does not parse: %w", err)
	}
	return res, nil
}

func indent(block, prefix string) string {
	lines := strings.Split(strings.TrimRight(block, "\n"), "\n")
	var sb strings.Builder
	for _, ln := range lines {
		sb.WriteString(prefix)
		sb.WriteString(ln)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func paramList(fn *minipy.Func) string {
	parts := make([]string, 0, len(fn.Params))
	for _, p := range minipy.FuncParams(fn) {
		if p.HasDefault {
			parts = append(parts, fmt.Sprintf("%s=%s", p.Name, p.Default.Repr()))
		} else {
			parts = append(parts, p.Name)
		}
	}
	return strings.Join(parts, ", ")
}

// stmtHoistable decides whether one prefix statement may move into the
// setup function.
func stmtHoistable(st minipy.Stmt, params, safe map[string]bool) bool {
	switch s := st.(type) {
	case *minipy.ImportStmt, *minipy.FromImportStmt:
		return true
	case *minipy.AssignStmt:
		// Only plain `name = expr` (including tuple-of-names targets);
		// augmented assignment reads its target, which would have to be
		// safe anyway, and attribute/index targets mutate objects whose
		// provenance we cannot see.
		if s.Op != minipy.Assign {
			return exprSafe(s.Target, params, safe) &&
				allNamesTargets(s.Target) && exprSafe(s.Value, params, safe) &&
				targetsSafe(s.Target, safe)
		}
		if !allNamesTargets(s.Target) {
			return false
		}
		return exprSafe(s.Value, params, safe)
	default:
		return false
	}
}

// targetsSafe reports whether every target name is already hoisted
// (augmented assignment on a hoisted binding).
func targetsSafe(e minipy.Expr, safe map[string]bool) bool {
	switch t := e.(type) {
	case *minipy.NameExpr:
		return safe[t.Name]
	case *minipy.TupleExpr:
		for _, el := range t.Elems {
			if !targetsSafe(el, safe) {
				return false
			}
		}
		return true
	}
	return false
}

// allNamesTargets reports whether the assignment target binds only
// simple names.
func allNamesTargets(e minipy.Expr) bool {
	switch t := e.(type) {
	case *minipy.NameExpr:
		return true
	case *minipy.TupleExpr:
		for _, el := range t.Elems {
			if !allNamesTargets(el) {
				return false
			}
		}
		return true
	}
	return false
}

// bindStmt records the names a hoisted statement binds.
func bindStmt(st minipy.Stmt, safe map[string]bool) {
	switch s := st.(type) {
	case *minipy.ImportStmt:
		safe[s.Item.Alias] = true
	case *minipy.FromImportStmt:
		safe[s.Item.Alias] = true
	case *minipy.AssignStmt:
		bindTarget(s.Target, safe)
	}
}

func bindTarget(e minipy.Expr, safe map[string]bool) {
	switch t := e.(type) {
	case *minipy.NameExpr:
		safe[t.Name] = true
	case *minipy.TupleExpr:
		for _, el := range t.Elems {
			bindTarget(el, safe)
		}
	}
}

// exprSafe reports whether every free name the expression reads is a
// builtin or a hoisted binding. Parameters and unknown module globals
// make it unsafe.
func exprSafe(e minipy.Expr, params, safe map[string]bool) bool {
	if e == nil {
		return false
	}
	ok := true
	minipy.Walk(e, func(n minipy.Node) bool {
		switch v := n.(type) {
		case *minipy.NameExpr:
			if params[v.Name] {
				ok = false
			} else if !safe[v.Name] && !isBuiltinName(v.Name) {
				ok = false
			}
		case *minipy.LambdaExpr:
			// A lambda's body may reference its own parameters; skip
			// the conservative check inside and refuse to hoist
			// lambdas outright (they may capture mutable state).
			ok = false
			return false
		}
		return ok
	})
	return ok
}

var (
	builtinOnce  sync.Once
	builtinNames map[string]bool
)

// isBuiltinName checks against the universal builtins every
// interpreter provides.
func isBuiltinName(name string) bool {
	builtinOnce.Do(func() {
		builtinNames = map[string]bool{}
		env := minipy.NewInterp(nil).NewGlobals()
		for _, n := range env.Names() {
			if v, ok := env.Get(n); ok && minipy.IsUniversalBuiltin(n, v) {
				builtinNames[n] = true
			}
		}
	})
	return builtinNames[name]
}
