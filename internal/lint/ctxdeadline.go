package lint

import (
	"go/ast"
	"go/types"
)

// ctxdeadline enforces the PR 1 failure-model contract (DESIGN.md §7)
// on the peer data layer: every network I/O call site must be
// deadline-armed. Concretely, in internal/worker and
// internal/dataplane:
//
//   - net.Dial is banned — use net.DialTimeout, or net.Dialer /
//     DialContext with a deadline-carrying context, so a vanished peer
//     costs a bounded wait.
//   - proto.NewConn (or proto.OneShot, its pooled-reader form for a
//     single exchange) over a raw net.Conn is banned — wrap the conn in
//     proto.WithIdleTimeout first, so every read and write must make
//     progress. (A control link that is idle by design carries a
//     //vinelint:ignore ctxdeadline justification instead.)
//   - a net.Conn kept in a struct field (a data-plane link, framed one
//     exchange at a time) is set from proto.WithIdleTimeout, so the
//     connections a framed one is later built over are wrapped where
//     they are made.
var ctxdeadline = &Analyzer{
	Name: "ctxdeadline",
	Doc:  "peer/network I/O must flow through proto.WithIdleTimeout or a deadline-bounded dial",
	Suffixes: []string{
		"internal/worker",
		"internal/dataplane",
	},
	Run: runCtxDeadline,
}

func runCtxDeadline(pass *Pass) {
	info := pass.Pkg.Info
	pass.InspectPkg(func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			checkConnFields(pass, lit)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "net" && fn.Name() == "Dial":
			pass.Reportf(call.Pos(), "net.Dial has no deadline; use net.DialTimeout (or DialContext with a deadline) so a dead peer costs a bounded wait")
		case (fn.Name() == "NewConn" || fn.Name() == "OneShot") && isProtoPkg(fn.Pkg()) && len(call.Args) >= 1:
			arg := ast.Unparen(call.Args[0])
			if !isNetConnType(info, arg) {
				return true // in-memory pipes, buffers: no wire involved
			}
			if wrapped := wrappedInIdleTimeout(info, arg); !wrapped {
				pass.Reportf(call.Pos(), "proto.%s over a raw net.Conn; wrap it in proto.WithIdleTimeout so stalled I/O times out (§7 failure model)", fn.Name())
			}
		}
		return true
	})
}

// checkConnFields reports each net.Conn field of a struct literal that is
// set to anything but a proto.WithIdleTimeout call.
func checkConnFields(pass *Pass, lit *ast.CompositeLit) {
	info := pass.Pkg.Info
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field, ok := info.Uses[key].(*types.Var)
		if !ok || !field.IsField() || !isNamed(field.Type(), "net", "Conn") {
			continue
		}
		if !wrappedInIdleTimeout(info, kv.Value) {
			pass.Reportf(kv.Pos(), "net.Conn field %s set to a raw connection; wrap it in proto.WithIdleTimeout so stalled I/O times out (§7 failure model)", key.Name)
		}
	}
}

// isNamed reports whether t is the named type pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg && named.Obj().Name() == name
}

func isProtoPkg(pkg *types.Package) bool {
	return pkg != nil && hasPathSuffix(pkg.Path(), "internal/proto")
}

// isNetConnType reports whether the expression's static type is (or
// implements) net.Conn.
func isNetConnType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	named, ok := t.(*types.Named)
	if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net" {
		return true
	}
	// Interface values declared as net.Conn elsewhere in the module.
	if iface, ok := t.Underlying().(*types.Interface); ok {
		// net.Conn has exactly these methods; a structural check avoids
		// needing the net package's type object here.
		want := map[string]bool{"Read": true, "Write": true, "Close": true,
			"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true,
			"SetReadDeadline": true, "SetWriteDeadline": true}
		if iface.NumMethods() != len(want) {
			return false
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if !want[iface.Method(i).Name()] {
				return false
			}
		}
		return true
	}
	return false
}

// wrappedInIdleTimeout reports whether the expression is a direct call
// to proto.WithIdleTimeout(...).
func wrappedInIdleTimeout(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := staticCallee(info, call)
	return fn != nil && fn.Name() == "WithIdleTimeout" && isProtoPkg(fn.Pkg())
}
