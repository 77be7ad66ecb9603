package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockdiscipline enforces the engines' lock hygiene: while a
// sync.Mutex/RWMutex is held, no channel sends, no proto writes, and
// no blocking network I/O — the hot-path contract that keeps the
// scheduler and data plane from stalling behind TCP backpressure
// (DESIGN.md §8, §10). It also flags a Lock() with no dominating
// Unlock (explicit or deferred) in the same function, the shape behind
// most leaked-lock deadlocks.
//
// The analysis is intra-procedural and lexical: a lock region runs
// from an `x.Lock()` statement to the matching `x.Unlock()` in the
// same statement list, or to the end of the function when the unlock
// is deferred. Calls into helpers are not followed — a helper that
// performs I/O under a caller's lock needs its own justification.
var lockdiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no channel sends, proto writes, or blocking I/O under a mutex; every Lock has a dominating Unlock",
	Suffixes: []string{
		"internal/manager",
		"internal/shardplane",
		"internal/worker",
		"internal/dataplane",
	},
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockDiscipline(pass, fd)
		}
	}
	// Function literals get the same treatment (goroutine bodies,
	// callbacks): each is analyzed as its own function.
	pass.InspectPkg(func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkLockBody(pass, fl.Body)
		}
		return true
	})
}

func checkLockDiscipline(pass *Pass, fd *ast.FuncDecl) {
	checkLockBody(pass, fd.Body)
}

// checkLockBody walks one function body's statement lists, tracking
// which mutexes are held at each point.
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	w := &lockWalker{pass: pass}
	w.walkList(body.List, nil)
	for _, lk := range w.unmatched {
		pass.Reportf(lk.pos, "%s.Lock() has no dominating Unlock or defer in this function", lk.name)
	}
}

type heldLock struct {
	name string // receiver expression, printed
	pos  token.Pos
}

type lockWalker struct {
	pass      *Pass
	unmatched []heldLock
	// deferred names mutexes with a `defer x.Unlock()` seen anywhere in
	// the walked body; a Lock on one of those is considered matched.
	deferred map[string]bool
	// unlocked names mutexes with a plain Unlock anywhere in the body,
	// used for the no-dominating-Unlock check across branches.
	unlocked map[string]bool
}

// walkList scans one statement list. held carries the mutexes locked
// by enclosing statements; locks opened in this list extend it.
func (w *lockWalker) walkList(stmts []ast.Stmt, held []heldLock) {
	if w.deferred == nil {
		w.deferred = map[string]bool{}
		w.unlocked = map[string]bool{}
		// Pre-scan for defers and unlocks so order within the function
		// does not matter for the dominating-Unlock check.
		for _, s := range stmts {
			w.prescan(s)
		}
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if name, kind := w.mutexCall(st.X); kind == "Lock" {
				if !w.deferred[name] && !w.unlocked[name] {
					w.unmatched = append(w.unmatched, heldLock{name: name, pos: st.Pos()})
				}
				held = append(held, heldLock{name: name, pos: st.Pos()})
				continue
			} else if kind == "Unlock" {
				held = dropLock(held, name)
				continue
			}
			w.checkStmt(s, held)
		case *ast.DeferStmt:
			// defer x.Unlock() closes the region at function exit; the
			// statements after it still run with the lock held.
			if name, kind := w.mutexCall(st.Call); kind == "Unlock" {
				_ = name // region stays open: held is unchanged on purpose
				continue
			}
			w.checkStmt(s, held)
		case *ast.BlockStmt:
			w.walkList(st.List, held)
		case *ast.IfStmt:
			w.checkExprUnder(st.Cond, held)
			w.walkList(st.Body.List, held)
			if st.Else != nil {
				w.walkList([]ast.Stmt{st.Else}, held)
			}
		case *ast.ForStmt:
			w.walkList(st.Body.List, held)
		case *ast.RangeStmt:
			w.walkList(st.Body.List, held)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walkList(cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walkList(cc.Body, held)
				}
			}
		case *ast.SelectStmt:
			// A select with a default case is non-blocking by
			// construction; without one, its sends and receives block.
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range st.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil && !hasDefault {
					w.checkStmt(cc.Comm, held)
				}
				w.walkList(cc.Body, held)
			}
		default:
			w.checkStmt(s, held)
		}
	}
}

func (w *lockWalker) prescan(s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's defers don't unlock the outer frame
		}
		switch st := n.(type) {
		case *ast.DeferStmt:
			if name, kind := w.mutexCall(st.Call); kind == "Unlock" {
				w.deferred[name] = true
			}
		case *ast.ExprStmt:
			if name, kind := w.mutexCall(st.X); kind == "Unlock" {
				w.unlocked[name] = true
			}
		}
		return true
	})
}

func dropLock(held []heldLock, name string) []heldLock {
	out := held[:0:0]
	for _, lk := range held {
		if lk.name != name {
			out = append(out, lk)
		}
	}
	return out
}

// checkStmt flags blocking operations inside a statement executed with
// locks held. Function literals are skipped: they run later, not under
// this region.
func (w *lockWalker) checkStmt(s ast.Stmt, held []heldLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.pass.Reportf(nn.Arrow, "channel send while %s is held; a full channel stalls every path behind this lock", held[len(held)-1].name)
		case *ast.CallExpr:
			w.checkCall(nn, held)
		}
		return true
	})
}

func (w *lockWalker) checkExprUnder(e ast.Expr, held []heldLock) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkCall(call, held)
		}
		return true
	})
}

// checkCall flags proto writes and blocking network I/O performed with
// a lock held.
func (w *lockWalker) checkCall(call *ast.CallExpr, held []heldLock) {
	info := w.pass.Pkg.Info
	fn := staticCallee(info, call)
	lock := held[len(held)-1].name
	if fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		switch {
		case strings.HasSuffix(path, "internal/proto") && fn.Name() != "Decode" && fn.Name() != "DecodeBulk" && fn.Name() != "SplitBulk" && fn.Name() != "NewConn" && fn.Name() != "WithIdleTimeout":
			w.pass.Reportf(call.Pos(), "proto I/O (%s) while %s is held; frame the message after releasing the lock", fn.Name(), lock)
		case path == "net":
			w.pass.Reportf(call.Pos(), "net.%s while %s is held; network I/O must not run under the scheduler lock", fn.Name(), lock)
		case path == "time" && fn.Name() == "Sleep":
			w.pass.Reportf(call.Pos(), "time.Sleep while %s is held", lock)
		case path == "io" && (fn.Name() == "ReadFull" || fn.Name() == "Copy" || fn.Name() == "ReadAll"):
			w.pass.Reportf(call.Pos(), "io.%s while %s is held; stream I/O must not run under a mutex", fn.Name(), lock)
		}
	}
	// Method calls on net.Conn / net.Listener values (Read, Write,
	// Accept, ...) block on the peer.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isNetConnish(tv.Type) {
			w.pass.Reportf(call.Pos(), "%s on a network connection while %s is held", sel.Sel.Name, lock)
		}
	}
}

// isNetConnish reports whether t is net.Conn, net.Listener, or a named
// type from package net.
func isNetConnish(t types.Type) bool {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

// mutexCall classifies an expression as `x.Lock()` / `x.Unlock()` on a
// sync.Mutex or RWMutex (RLock/RUnlock count too), returning the
// printed receiver and "Lock"/"Unlock", or "" when it is neither.
func (w *lockWalker) mutexCall(e ast.Expr) (name, kind string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn := staticCallee(w.pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return exprString(sel.X), "Lock"
	case "Unlock", "RUnlock":
		return exprString(sel.X), "Unlock"
	}
	return "", ""
}

// exprString renders a receiver expression for region matching —
// identical spellings pair a Lock with its Unlock.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	default:
		return "?"
	}
}
