package minipy

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the equivalent of Python's inspect module plus the AST
// analyses the Discover mechanism needs: source extraction, free
// variable analysis, and import scanning.

// GetSource returns the source text of a user-defined function. It
// first tries the original file text (like inspect.getsource); when the
// function has no retrievable source — a lambda, or a function rebuilt
// from a pickle — it falls back to rendering the AST, and reports
// fromAST=true.
func GetSource(f *Func) (src string, fromAST bool, err error) {
	if f.Expr != nil { // lambda
		le := &LambdaExpr{Params: f.Params, Body: f.Expr}
		return PrintExpr(le), true, nil
	}
	if f.Def == nil {
		if f.Body == nil {
			return "", false, fmt.Errorf("minipy: function %q has no code object", f.Name)
		}
		d := &DefStmt{Name: f.Name, Params: f.Params, Body: f.Body}
		return PrintStmt(d), true, nil
	}
	if f.Source != "" && f.Def.Line > 0 {
		if text, ok := extractLines(f.Source, f.Def.Line, f.Def.EndLine); ok {
			return text, false, nil
		}
	}
	return PrintStmt(f.Def), true, nil
}

// extractLines pulls lines start..end (1-based, inclusive) from src and
// dedents them to the left margin.
func extractLines(src string, start, end int) (string, bool) {
	lines := strings.Split(src, "\n")
	if start < 1 || end > len(lines) || start > end {
		return "", false
	}
	picked := lines[start-1 : end]
	// Determine common indentation of non-blank lines.
	indent := -1
	for _, ln := range picked {
		trimmed := strings.TrimLeft(ln, " \t")
		if trimmed == "" {
			continue
		}
		w := len(ln) - len(trimmed)
		if indent < 0 || w < indent {
			indent = w
		}
	}
	if indent < 0 {
		indent = 0
	}
	out := make([]string, len(picked))
	for i, ln := range picked {
		if len(ln) >= indent {
			out[i] = ln[indent:]
		} else {
			out[i] = strings.TrimLeft(ln, " \t")
		}
	}
	return strings.Join(out, "\n") + "\n", true
}

// FreeVars returns the names a function references but does not bind
// locally — the names that must be satisfied by its closure, module
// globals, or builtins when the function is reconstructed remotely.
// Nested function and lambda bodies are included (their own parameters
// and locals are excluded).
func FreeVars(f *Func) []string {
	bound := map[string]bool{}
	for _, p := range f.Params {
		bound[p.Name] = true
	}
	free := map[string]bool{}
	if f.Expr != nil {
		collectFree(exprNodeOnly(f.Expr), bound, free)
	} else {
		collectFreeStmts(f.Body, bound, free)
	}
	out := make([]string, 0, len(free))
	for n := range free {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func exprNodeOnly(e Expr) []Stmt {
	return []Stmt{&ExprStmt{Value: e}}
}

// collectFreeStmts performs a two-pass scan over a body: first find all
// locally bound names (assignment targets, for targets, defs, imports),
// then collect referenced names not in the bound set.
func collectFreeStmts(body []Stmt, boundIn map[string]bool, free map[string]bool) {
	bound := map[string]bool{}
	for k := range boundIn {
		bound[k] = true
	}
	globals := map[string]bool{}
	for _, s := range body {
		findBound(s, bound, globals)
	}
	for n := range globals {
		delete(bound, n) // global declarations force module-level resolution
	}
	collectFree(body, bound, free)
}

func findBound(s Stmt, bound, globals map[string]bool) {
	switch st := s.(type) {
	case *AssignStmt:
		bindTargets(st.Target, bound)
	case *ForStmt:
		for _, t := range st.Targets {
			bound[t] = true
		}
		for _, b := range st.Body {
			findBound(b, bound, globals)
		}
	case *DefStmt:
		bound[st.Name] = true
	case *ImportStmt:
		for _, it := range st.Items {
			bound[rootName(it.Alias)] = true
		}
	case *FromImportStmt:
		for _, it := range st.Items {
			bound[it.Alias] = true
		}
	case *GlobalStmt:
		for _, n := range st.Names {
			globals[n] = true
		}
	case *IfStmt:
		for _, b := range st.Body {
			findBound(b, bound, globals)
		}
		for _, b := range st.Else {
			findBound(b, bound, globals)
		}
	case *WhileStmt:
		for _, b := range st.Body {
			findBound(b, bound, globals)
		}
	case *TryStmt:
		if st.ErrName != "" {
			bound[st.ErrName] = true
		}
		for _, blk := range [][]Stmt{st.Body, st.Except, st.Finally} {
			for _, b := range blk {
				findBound(b, bound, globals)
			}
		}
	}
}

func bindTargets(e Expr, bound map[string]bool) {
	switch t := e.(type) {
	case *NameExpr:
		bound[t.Name] = true
	case *TupleExpr:
		for _, el := range t.Elems {
			bindTargets(el, bound)
		}
	}
}

func rootName(dotted string) string {
	if i := strings.IndexByte(dotted, '.'); i >= 0 {
		return dotted[:i]
	}
	return dotted
}

func collectFree(body []Stmt, bound, free map[string]bool) {
	for _, s := range body {
		walkStmtFree(s, bound, free)
	}
}

func walkStmtFree(s Stmt, bound, free map[string]bool) {
	switch st := s.(type) {
	case *DefStmt:
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, p := range st.Params {
			if p.Default != nil {
				walkExprFree(p.Default, bound, free)
			}
			inner[p.Name] = true
		}
		collectFreeStmts(st.Body, inner, free)
	case *AssignStmt:
		walkExprFree(st.Value, bound, free)
		walkAssignTargetFree(st.Target, bound, free)
	case *ExprStmt:
		walkExprFree(st.Value, bound, free)
	case *ReturnStmt:
		if st.Value != nil {
			walkExprFree(st.Value, bound, free)
		}
	case *IfStmt:
		walkExprFree(st.Cond, bound, free)
		collectFree(st.Body, bound, free)
		collectFree(st.Else, bound, free)
	case *WhileStmt:
		walkExprFree(st.Cond, bound, free)
		collectFree(st.Body, bound, free)
	case *ForStmt:
		walkExprFree(st.Iter, bound, free)
		collectFree(st.Body, bound, free)
	case *DelStmt:
		walkExprFree(st.Target, bound, free)
	case *RaiseStmt:
		if st.Value != nil {
			walkExprFree(st.Value, bound, free)
		}
	case *TryStmt:
		collectFree(st.Body, bound, free)
		collectFree(st.Except, bound, free)
		collectFree(st.Finally, bound, free)
	case *AssertStmt:
		walkExprFree(st.Cond, bound, free)
		if st.Msg != nil {
			walkExprFree(st.Msg, bound, free)
		}
	}
}

// walkAssignTargetFree records names read by attribute/index targets
// (the container is read even though the element is written).
func walkAssignTargetFree(e Expr, bound, free map[string]bool) {
	switch t := e.(type) {
	case *AttrExpr:
		walkExprFree(t.X, bound, free)
	case *IndexExpr:
		walkExprFree(t.X, bound, free)
		walkExprFree(t.Index, bound, free)
	case *TupleExpr:
		for _, el := range t.Elems {
			walkAssignTargetFree(el, bound, free)
		}
	}
}

func walkExprFree(e Expr, bound, free map[string]bool) {
	switch ex := e.(type) {
	case *NameExpr:
		if !bound[ex.Name] {
			free[ex.Name] = true
		}
	case *LambdaExpr:
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, p := range ex.Params {
			if p.Default != nil {
				walkExprFree(p.Default, bound, free)
			}
			inner[p.Name] = true
		}
		walkExprFree(ex.Body, inner, free)
	default:
		Walk(e, func(n Node) bool {
			switch v := n.(type) {
			case *NameExpr:
				if !bound[v.Name] {
					free[v.Name] = true
				}
			case *LambdaExpr:
				if v != e {
					walkExprFree(v, bound, free)
					return false
				}
			}
			return true
		})
	}
}

// ImportedModules scans a function's code (including nested functions
// and lambdas) for import statements and returns the top-level module
// names, sorted and deduplicated. This is the AST scan the Poncho
// toolkit performs to infer software dependencies.
func ImportedModules(f *Func) []string {
	seen := map[string]bool{}
	var scan func(stmts []Stmt)
	scan = func(stmts []Stmt) {
		for _, s := range stmts {
			Walk(s, func(n Node) bool {
				switch st := n.(type) {
				case *ImportStmt:
					for _, it := range st.Items {
						seen[rootName(it.Module)] = true
					}
				case *FromImportStmt:
					seen[rootName(st.Module)] = true
				}
				return true
			})
		}
	}
	if f.Body != nil {
		scan(f.Body)
	}
	if f.Expr != nil {
		scan([]Stmt{&ExprStmt{Value: f.Expr}})
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
