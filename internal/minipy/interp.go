package minipy

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// Host provides the interpreter's view of its surroundings: which
// modules are importable (on a worker this is the unpacked software
// environment) and where print output goes. Implementations live in the
// worker and library runtimes.
type Host interface {
	// ResolveModule returns the module for an import statement, or an
	// error if the module is not installed in the current environment.
	ResolveModule(ip *Interp, name string) (*ModuleVal, error)
	// Stdout is the destination for print().
	Stdout() io.Writer
}

// RuntimeError is a MiniPy-level runtime error (including those raised
// by `raise`).
type RuntimeError struct {
	Msg  string
	Line int
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("minipy: runtime error at line %d: %s", e.Line, e.Msg)
	}
	return "minipy: runtime error: " + e.Msg
}

// Control-flow signals are implemented as sentinel error types that
// propagate out of exec until caught by the enclosing construct.
type returnSignal struct{}
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// errReturn is the singleton return signal; the value travels in the
// frame (frame.ret), so signalling a return allocates nothing.
var errReturn error = returnSignal{}

// Interp executes MiniPy programs. An Interp is not safe for concurrent
// use; library fork mode creates a child Interp sharing the Host and
// the module cache (which is independently locked, since forked
// children run concurrently).
type Interp struct {
	host    Host
	modules *moduleCache
	steps   int64
	// StepLimit bounds the number of statements+expressions evaluated,
	// guarding against runaway loops in untrusted task code. Zero means
	// no limit.
	StepLimit int64
	depth     int
	// MaxDepth bounds call recursion.
	MaxDepth int
	// envFree recycles function-local environments between calls: a
	// call whose frame was not captured by a closure returns its Env
	// (and its bucket memory) here instead of to the garbage collector.
	envFree []*Env
}

// defaultHost is used when no host is supplied: no importable modules,
// print to io.Discard.
type defaultHost struct{ out io.Writer }

func (h defaultHost) ResolveModule(_ *Interp, name string) (*ModuleVal, error) {
	return nil, fmt.Errorf("no module named '%s'", name)
}
func (h defaultHost) Stdout() io.Writer { return h.out }

// NewInterp creates an interpreter with the given host. A nil host
// yields an interpreter with no importable modules and discarded print
// output.
func NewInterp(host Host) *Interp {
	if host == nil {
		host = defaultHost{out: io.Discard}
	}
	return &Interp{host: host, modules: newModuleCache(), MaxDepth: 200}
}

// moduleCache is the import cache shared between an interpreter and
// its forked children.
type moduleCache struct {
	mu sync.Mutex
	m  map[string]*ModuleVal
}

func newModuleCache() *moduleCache {
	return &moduleCache{m: map[string]*ModuleVal{}}
}

func (c *moduleCache) get(name string) (*ModuleVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[name]
	return v, ok
}

func (c *moduleCache) put(name string, mod *ModuleVal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[name] = mod
}

// Host returns the interpreter's host.
func (ip *Interp) Host() Host { return ip.host }

// Fork creates a child interpreter sharing the host and module cache,
// used by the library fork execution mode.
func (ip *Interp) Fork() *Interp {
	return &Interp{host: ip.host, modules: ip.modules, StepLimit: ip.StepLimit, MaxDepth: ip.MaxDepth}
}

// Steps returns the number of evaluation steps performed so far.
func (ip *Interp) Steps() int64 { return ip.steps }

// ResetBudget starts a fresh StepLimit and MaxDepth budget. An
// interpreter that outlives one call — a library's, serving invocation
// after invocation — calls it before each, so the limits bound every
// call rather than the interpreter's lifetime.
func (ip *Interp) ResetBudget() { ip.steps, ip.depth = 0, 0 }

func (ip *Interp) tick(line int) error {
	ip.steps++
	if ip.StepLimit > 0 && ip.steps > ip.StepLimit {
		return &RuntimeError{Msg: "step limit exceeded", Line: line}
	}
	return nil
}

func rtErrf(line int, format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Line: line}
}

// RunModule parses and executes src as a module body in a fresh globals
// environment, returning the globals. The source text is remembered on
// functions it defines, enabling source extraction.
func (ip *Interp) RunModule(src, modName string) (*Env, error) {
	mod, err := Parse(src)
	if err != nil {
		return nil, err
	}
	globals := NewEnv(nil)
	ip.installUniversalBuiltins(globals)
	if err := ip.ExecBlockWithSource(mod.Body, globals, src, modName); err != nil {
		return nil, err
	}
	return globals, nil
}

// ExecBlockWithSource executes statements in env, tagging any defined
// functions with the given source text and module name.
func (ip *Interp) ExecBlockWithSource(body []Stmt, env *Env, src, modName string) error {
	fr := &frame{env: env, src: src, module: modName}
	for _, s := range body {
		if err := ip.exec(s, fr); err != nil {
			return err
		}
	}
	return nil
}

// Eval parses and evaluates a single expression in env.
func (ip *Interp) Eval(src string, env *Env) (Value, error) {
	e, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	fr := &frame{env: env}
	return ip.eval(e, fr)
}

// Call invokes a callable MiniPy value with the given arguments.
func (ip *Interp) Call(fn Value, args []Value, kwargs map[string]Value) (Value, error) {
	return ip.callValue(fn, args, kwargs, 0)
}

// frame carries the per-invocation execution state: the local
// environment, declared globals, and source provenance for functions
// defined within.
type frame struct {
	env     *Env
	globals map[string]bool // names declared global in this frame
	src     string
	module  string
	// ret carries the value of an executed return statement while the
	// errReturn signal unwinds to the enclosing callFunc.
	ret Value
}

func (fr *frame) isGlobal(name string) bool {
	return fr.globals != nil && fr.globals[name]
}

// ---- Statements ----

func (ip *Interp) exec(s Stmt, fr *frame) error {
	if err := ip.tick(s.Pos()); err != nil {
		return err
	}
	switch st := s.(type) {
	case *ExprStmt:
		_, err := ip.eval(st.Value, fr)
		return err
	case *AssignStmt:
		return ip.execAssign(st, fr)
	case *DefStmt:
		fn := &Func{
			Name:    st.Name,
			Params:  st.Params,
			Body:    st.Body,
			Globals: fr.env.Root(),
			Doc:     st.Doc,
			Def:     st,
			Source:  fr.src,
			Module:  fr.module,
		}
		if fr.env.Parent() != nil {
			fn.Closure = fr.env
			markEscaped(fr.env)
		}
		// Evaluate default expressions at definition time.
		if err := ip.bindDefaults(fn, fr); err != nil {
			return err
		}
		fr.env.Set(st.Name, fn)
		return nil
	case *ReturnStmt:
		var v Value = NoneValue
		if st.Value != nil {
			var err error
			v, err = ip.eval(st.Value, fr)
			if err != nil {
				return err
			}
		}
		fr.ret = v
		return errReturn
	case *IfStmt:
		cond, err := ip.eval(st.Cond, fr)
		if err != nil {
			return err
		}
		if cond.Truth() {
			return ip.execBlock(st.Body, fr)
		}
		return ip.execBlock(st.Else, fr)
	case *WhileStmt:
		for {
			cond, err := ip.eval(st.Cond, fr)
			if err != nil {
				return err
			}
			if !cond.Truth() {
				return nil
			}
			if err := ip.execBlock(st.Body, fr); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return err
			}
		}
	case *ForStmt:
		iter, err := ip.eval(st.Iter, fr)
		if err != nil {
			return err
		}
		items, err := iterate(iter, st.Pos())
		if err != nil {
			return err
		}
		for _, item := range items {
			if err := ip.bindForTargets(st, item, fr); err != nil {
				return err
			}
			if err := ip.execBlock(st.Body, fr); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return err
			}
		}
		return nil
	case *ImportStmt:
		for _, item := range st.Items {
			mod, err := ip.importModule(item.Module, st.Pos())
			if err != nil {
				return err
			}
			// Respect `global name` declarations, as Python does.
			ip.setName(item.Alias, mod, fr)
		}
		return nil
	case *FromImportStmt:
		mod, err := ip.importModule(st.Module, st.Pos())
		if err != nil {
			return err
		}
		for _, item := range st.Items {
			v, ok := mod.Attrs[item.Module]
			if !ok {
				return rtErrf(st.Pos(), "cannot import name '%s' from '%s'", item.Module, st.Module)
			}
			ip.setName(item.Alias, v, fr)
		}
		return nil
	case *GlobalStmt:
		if fr.globals == nil {
			fr.globals = map[string]bool{}
		}
		for _, n := range st.Names {
			fr.globals[n] = true
		}
		return nil
	case *PassStmt:
		return nil
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *DelStmt:
		return ip.execDel(st, fr)
	case *RaiseStmt:
		msg := "exception"
		if st.Value != nil {
			v, err := ip.eval(st.Value, fr)
			if err != nil {
				return err
			}
			msg = ToStr(v)
		}
		return &RuntimeError{Msg: msg, Line: st.Pos()}
	case *TryStmt:
		err := ip.execBlock(st.Body, fr)
		if err != nil {
			if re, ok := err.(*RuntimeError); ok && st.Except != nil {
				if st.ErrName != "" {
					fr.env.Set(st.ErrName, Str(re.Msg))
				}
				err = ip.execBlock(st.Except, fr)
			}
		}
		if st.Finally != nil {
			if ferr := ip.execBlock(st.Finally, fr); ferr != nil {
				return ferr
			}
		}
		return err
	case *AssertStmt:
		cond, err := ip.eval(st.Cond, fr)
		if err != nil {
			return err
		}
		if !cond.Truth() {
			msg := "assertion failed"
			if st.Msg != nil {
				mv, err := ip.eval(st.Msg, fr)
				if err != nil {
					return err
				}
				msg = "assertion failed: " + ToStr(mv)
			}
			return &RuntimeError{Msg: msg, Line: st.Pos()}
		}
		return nil
	}
	return rtErrf(s.Pos(), "unsupported statement %T", s)
}

func (ip *Interp) execBlock(body []Stmt, fr *frame) error {
	for _, s := range body {
		if err := ip.exec(s, fr); err != nil {
			return err
		}
	}
	return nil
}

func (ip *Interp) bindDefaults(fn *Func, fr *frame) error {
	params := make([]Param, len(fn.Params))
	copy(params, fn.Params)
	for i, p := range params {
		if p.Default != nil {
			v, err := ip.eval(p.Default, fr)
			if err != nil {
				return err
			}
			params[i].Default = &evaluatedDefault{base: base{Line: 0}, value: v, orig: p.Default}
		}
	}
	fn.Params = params
	return nil
}

// evaluatedDefault wraps a pre-evaluated default value so calls don't
// re-evaluate the default expression (matching Python's
// evaluate-at-definition semantics). The original expression is kept
// for source printing.
type evaluatedDefault struct {
	base
	value Value
	orig  Expr
}

func (*evaluatedDefault) exprNode() {}

func (ip *Interp) bindForTargets(st *ForStmt, item Value, fr *frame) error {
	if len(st.Targets) == 1 {
		ip.setName(st.Targets[0], item, fr)
		return nil
	}
	elems, ok := sequenceElems(item)
	if !ok {
		return rtErrf(st.Pos(), "cannot unpack non-sequence %s", item.Type())
	}
	if len(elems) != len(st.Targets) {
		return rtErrf(st.Pos(), "cannot unpack %d values into %d targets", len(elems), len(st.Targets))
	}
	for i, t := range st.Targets {
		ip.setName(t, elems[i], fr)
	}
	return nil
}

// setName binds name respecting any `global` declaration in the frame.
func (ip *Interp) setName(name string, v Value, fr *frame) {
	if fr.isGlobal(name) {
		fr.env.Root().Set(name, v)
		return
	}
	fr.env.Set(name, v)
}

func (ip *Interp) execAssign(st *AssignStmt, fr *frame) error {
	val, err := ip.eval(st.Value, fr)
	if err != nil {
		return err
	}
	if st.Op != Assign {
		cur, err := ip.eval(st.Target, fr)
		if err != nil {
			return err
		}
		var op Kind
		switch st.Op {
		case PlusAssign:
			op = Plus
		case MinusAssign:
			op = Minus
		case StarAssign:
			op = Star
		case SlashAssign:
			op = Slash
		}
		val, err = binaryOp(op, cur, val, st.Pos())
		if err != nil {
			return err
		}
	}
	return ip.assignTo(st.Target, val, fr)
}

func (ip *Interp) assignTo(target Expr, val Value, fr *frame) error {
	switch t := target.(type) {
	case *NameExpr:
		ip.setName(t.Name, val, fr)
		return nil
	case *AttrExpr:
		obj, err := ip.eval(t.X, fr)
		if err != nil {
			return err
		}
		return setAttr(obj, t.Name, val, t.Pos())
	case *IndexExpr:
		obj, err := ip.eval(t.X, fr)
		if err != nil {
			return err
		}
		idx, err := ip.eval(t.Index, fr)
		if err != nil {
			return err
		}
		return setIndex(obj, idx, val, t.Pos())
	case *TupleExpr:
		elems, ok := sequenceElems(val)
		if !ok {
			return rtErrf(t.Pos(), "cannot unpack non-sequence %s", val.Type())
		}
		if len(elems) != len(t.Elems) {
			return rtErrf(t.Pos(), "cannot unpack %d values into %d targets", len(elems), len(t.Elems))
		}
		for i, el := range t.Elems {
			if err := ip.assignTo(el, elems[i], fr); err != nil {
				return err
			}
		}
		return nil
	}
	return rtErrf(target.Pos(), "invalid assignment target %T", target)
}

func (ip *Interp) execDel(st *DelStmt, fr *frame) error {
	switch t := st.Target.(type) {
	case *NameExpr:
		if fr.isGlobal(t.Name) {
			if !fr.env.Root().Delete(t.Name) {
				return rtErrf(st.Pos(), "name '%s' is not defined", t.Name)
			}
			return nil
		}
		if !fr.env.Delete(t.Name) {
			return rtErrf(st.Pos(), "name '%s' is not defined", t.Name)
		}
		return nil
	case *IndexExpr:
		obj, err := ip.eval(t.X, fr)
		if err != nil {
			return err
		}
		idx, err := ip.eval(t.Index, fr)
		if err != nil {
			return err
		}
		switch c := obj.(type) {
		case *Dict:
			if !c.Delete(idx) {
				return rtErrf(st.Pos(), "KeyError: %s", idx.Repr())
			}
			return nil
		case *List:
			i, err := listIndex(c, idx, st.Pos())
			if err != nil {
				return err
			}
			c.Elems = append(c.Elems[:i], c.Elems[i+1:]...)
			return nil
		}
		return rtErrf(st.Pos(), "cannot delete from %s", obj.Type())
	case *AttrExpr:
		obj, err := ip.eval(t.X, fr)
		if err != nil {
			return err
		}
		if o, ok := obj.(*Object); ok {
			delete(o.Attrs, t.Name)
			return nil
		}
		return rtErrf(st.Pos(), "cannot delete attribute of %s", obj.Type())
	}
	return rtErrf(st.Pos(), "invalid del target")
}

func (ip *Interp) importModule(name string, line int) (*ModuleVal, error) {
	if m, ok := ip.modules.get(name); ok {
		return m, nil
	}
	m, err := ip.host.ResolveModule(ip, name)
	if err != nil {
		return nil, &RuntimeError{Msg: err.Error(), Line: line}
	}
	ip.modules.put(name, m)
	return m, nil
}

// ---- Expressions ----

func (ip *Interp) eval(e Expr, fr *frame) (Value, error) {
	if err := ip.tick(e.Pos()); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *IntLit:
		return Int(ex.Value), nil
	case *FloatLit:
		return Float(ex.Value), nil
	case *StringLit:
		return Str(ex.Value), nil
	case *BoolLit:
		return Bool(ex.Value), nil
	case *NoneLit:
		return NoneValue, nil
	case *evaluatedDefault:
		return ex.value, nil
	case *NameExpr:
		if fr.isGlobal(ex.Name) {
			if v, ok := fr.env.Root().GetLocal(ex.Name); ok {
				return v, nil
			}
			return nil, rtErrf(ex.Pos(), "name '%s' is not defined", ex.Name)
		}
		if v, ok := fr.env.Get(ex.Name); ok {
			return v, nil
		}
		return nil, rtErrf(ex.Pos(), "name '%s' is not defined", ex.Name)
	case *ListLit:
		elems := make([]Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := ip.eval(el, fr)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return &List{Elems: elems}, nil
	case *TupleExpr:
		elems := make([]Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := ip.eval(el, fr)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return &Tuple{Elems: elems}, nil
	case *DictLit:
		d := NewDict()
		for i := range ex.Keys {
			k, err := ip.eval(ex.Keys[i], fr)
			if err != nil {
				return nil, err
			}
			v, err := ip.eval(ex.Values[i], fr)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, &RuntimeError{Msg: err.Error(), Line: ex.Pos()}
			}
		}
		return d, nil
	case *BinExpr:
		left, err := ip.eval(ex.Left, fr)
		if err != nil {
			return nil, err
		}
		right, err := ip.eval(ex.Right, fr)
		if err != nil {
			return nil, err
		}
		return binaryOp(ex.Op, left, right, ex.Pos())
	case *BoolExpr:
		left, err := ip.eval(ex.Left, fr)
		if err != nil {
			return nil, err
		}
		if ex.Op == KwAnd {
			if !left.Truth() {
				return left, nil
			}
		} else if left.Truth() {
			return left, nil
		}
		return ip.eval(ex.Right, fr)
	case *UnaryExpr:
		v, err := ip.eval(ex.Operand, fr)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case Minus:
			switch n := v.(type) {
			case Int:
				return -n, nil
			case Float:
				return -n, nil
			case Bool:
				if n {
					return Int(-1), nil
				}
				return Int(0), nil
			}
			return nil, rtErrf(ex.Pos(), "bad operand type for unary -: '%s'", v.Type())
		case Plus:
			switch v.(type) {
			case Int, Float, Bool:
				return v, nil
			}
			return nil, rtErrf(ex.Pos(), "bad operand type for unary +: '%s'", v.Type())
		case KwNot:
			return Bool(!v.Truth()), nil
		}
		return nil, rtErrf(ex.Pos(), "unsupported unary operator")
	case *CondExpr:
		cond, err := ip.eval(ex.Cond, fr)
		if err != nil {
			return nil, err
		}
		if cond.Truth() {
			return ip.eval(ex.Then, fr)
		}
		return ip.eval(ex.Else, fr)
	case *InExpr:
		x, err := ip.eval(ex.X, fr)
		if err != nil {
			return nil, err
		}
		c, err := ip.eval(ex.Container, fr)
		if err != nil {
			return nil, err
		}
		found, err := contains(c, x, ex.Pos())
		if err != nil {
			return nil, err
		}
		if ex.Not {
			found = !found
		}
		return Bool(found), nil
	case *LambdaExpr:
		fn := &Func{
			Name:    "",
			Params:  ex.Params,
			Expr:    ex.Body,
			Globals: fr.env.Root(),
			Module:  fr.module,
		}
		if fr.env.Parent() != nil {
			fn.Closure = fr.env
			markEscaped(fr.env)
		}
		if err := ip.bindDefaults(fn, fr); err != nil {
			return nil, err
		}
		return fn, nil
	case *CallExpr:
		fn, err := ip.eval(ex.Func, fr)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := ip.eval(a, fr)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		var kwargs map[string]Value
		if len(ex.KwArgs) > 0 {
			kwargs = make(map[string]Value, len(ex.KwArgs))
			for _, kw := range ex.KwArgs {
				v, err := ip.eval(kw.Value, fr)
				if err != nil {
					return nil, err
				}
				kwargs[kw.Name] = v
			}
		}
		return ip.callValue(fn, args, kwargs, ex.Pos())
	case *AttrExpr:
		obj, err := ip.eval(ex.X, fr)
		if err != nil {
			return nil, err
		}
		return getAttr(ip, obj, ex.Name, ex.Pos())
	case *IndexExpr:
		obj, err := ip.eval(ex.X, fr)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(ex.Index, fr)
		if err != nil {
			return nil, err
		}
		return getIndex(obj, idx, ex.Pos())
	case *SliceExpr:
		obj, err := ip.eval(ex.X, fr)
		if err != nil {
			return nil, err
		}
		var lo, hi Value
		if ex.Lo != nil {
			if lo, err = ip.eval(ex.Lo, fr); err != nil {
				return nil, err
			}
		}
		if ex.Hi != nil {
			if hi, err = ip.eval(ex.Hi, fr); err != nil {
				return nil, err
			}
		}
		return getSlice(obj, lo, hi, ex.Pos())
	}
	return nil, rtErrf(e.Pos(), "unsupported expression %T", e)
}

// callValue dispatches a call on any callable value.
func (ip *Interp) callValue(fn Value, args []Value, kwargs map[string]Value, line int) (Value, error) {
	ip.depth++
	defer func() { ip.depth-- }()
	if ip.MaxDepth > 0 && ip.depth > ip.MaxDepth {
		return nil, rtErrf(line, "maximum recursion depth exceeded")
	}
	switch f := fn.(type) {
	case *Func:
		return ip.callFunc(f, args, kwargs, line)
	case *Builtin:
		v, err := f.Fn(ip, args, kwargs)
		if err != nil {
			if _, ok := err.(*RuntimeError); !ok {
				err = &RuntimeError{Msg: err.Error(), Line: line}
			}
			return nil, err
		}
		return v, nil
	case *BoundMethod:
		v, err := f.Fn(ip, f.Recv, args, kwargs)
		if err != nil {
			if _, ok := err.(*RuntimeError); !ok {
				err = &RuntimeError{Msg: err.Error(), Line: line}
			}
			return nil, err
		}
		return v, nil
	}
	return nil, rtErrf(line, "'%s' object is not callable", fn.Type())
}

func (ip *Interp) callFunc(f *Func, args []Value, kwargs map[string]Value, line int) (Value, error) {
	var parent *Env
	if f.Closure != nil {
		parent = f.Closure
	} else {
		parent = f.Globals
	}
	locals := ip.newLocalEnv(parent)
	if err := bindParams(f, args, kwargs, locals, line); err != nil {
		ip.releaseEnv(locals)
		return nil, err
	}
	fr := frame{env: locals, src: f.Source, module: f.Module}
	if f.Expr != nil { // lambda
		v, err := ip.eval(f.Expr, &fr)
		ip.releaseEnv(locals)
		return v, err
	}
	err := ip.execBlock(f.Body, &fr)
	ret := fr.ret
	ip.releaseEnv(locals)
	if err != nil {
		if err == errReturn {
			return ret, nil
		}
		return nil, err
	}
	return NoneValue, nil
}

// newLocalEnv pops a recycled frame or allocates one.
func (ip *Interp) newLocalEnv(parent *Env) *Env {
	if n := len(ip.envFree); n > 0 {
		e := ip.envFree[n-1]
		ip.envFree[n-1] = nil
		ip.envFree = ip.envFree[:n-1]
		e.parent = parent
		return e
	}
	return NewEnv(parent)
}

// releaseEnv recycles a function-local frame unless a closure captured
// it (markEscaped) — then the frame must stay live with its bindings.
func (ip *Interp) releaseEnv(e *Env) {
	if e.escaped || len(ip.envFree) >= 64 {
		return
	}
	clear(e.vars)
	e.parent = nil
	ip.envFree = append(ip.envFree, e)
}

// markEscaped pins a captured frame and its ancestors against frame
// recycling.
func markEscaped(e *Env) {
	for ; e != nil && !e.escaped; e = e.parent {
		e.escaped = true
	}
}

func bindParams(f *Func, args []Value, kwargs map[string]Value, locals *Env, line int) error {
	name := f.Name
	if name == "" {
		name = "<lambda>"
	}
	if len(args) > len(f.Params) {
		return rtErrf(line, "%s() takes %d positional arguments but %d were given",
			name, len(f.Params), len(args))
	}
	// used tracks kwarg consumption; positional-only calls never need it.
	var used map[string]bool
	if len(kwargs) > 0 {
		used = map[string]bool{}
	}
	for i, p := range f.Params {
		if i < len(args) {
			locals.Set(p.Name, args[i])
			if used != nil {
				used[p.Name] = true
			}
			continue
		}
		if v, ok := kwargs[p.Name]; ok {
			locals.Set(p.Name, v)
			used[p.Name] = true
			continue
		}
		if p.Default != nil {
			if ed, ok := p.Default.(*evaluatedDefault); ok {
				locals.Set(p.Name, ed.value)
			} else {
				return rtErrf(line, "internal: unevaluated default for %s", p.Name)
			}
			continue
		}
		return rtErrf(line, "%s() missing required argument: '%s'", name, p.Name)
	}
	for i, p := range f.Params {
		if i < len(args) {
			if _, dup := kwargs[p.Name]; dup {
				return rtErrf(line, "%s() got multiple values for argument '%s'", name, p.Name)
			}
		}
	}
	for k := range kwargs {
		if !used[k] {
			found := false
			for _, p := range f.Params {
				if p.Name == k {
					found = true
					break
				}
			}
			if !found {
				return rtErrf(line, "%s() got an unexpected keyword argument '%s'", name, k)
			}
		}
	}
	return nil
}

// ---- Operators and protocols ----

func binaryOp(op Kind, a, b Value, line int) (Value, error) {
	switch op {
	case Plus:
		if x, ok := a.(Str); ok {
			if y, ok := b.(Str); ok {
				return x + y, nil
			}
			return nil, rtErrf(line, "can only concatenate str to str, not %s", b.Type())
		}
		if x, ok := a.(*List); ok {
			if y, ok := b.(*List); ok {
				out := make([]Value, 0, len(x.Elems)+len(y.Elems))
				out = append(out, x.Elems...)
				out = append(out, y.Elems...)
				return &List{Elems: out}, nil
			}
			return nil, rtErrf(line, "can only concatenate list to list, not %s", b.Type())
		}
		if x, ok := a.(*Tuple); ok {
			if y, ok := b.(*Tuple); ok {
				out := make([]Value, 0, len(x.Elems)+len(y.Elems))
				out = append(out, x.Elems...)
				out = append(out, y.Elems...)
				return &Tuple{Elems: out}, nil
			}
		}
		return numericOp(op, a, b, line)
	case Star:
		if x, ok := a.(Str); ok {
			if n, ok := b.(Int); ok {
				return Str(strings.Repeat(string(x), clampRepeat(int(n)))), nil
			}
		}
		if n, ok := a.(Int); ok {
			if x, ok := b.(Str); ok {
				return Str(strings.Repeat(string(x), clampRepeat(int(n)))), nil
			}
		}
		if x, ok := a.(*List); ok {
			if n, ok := b.(Int); ok {
				return repeatList(x, int(n)), nil
			}
		}
		if n, ok := a.(Int); ok {
			if x, ok := b.(*List); ok {
				return repeatList(x, int(n)), nil
			}
		}
		return numericOp(op, a, b, line)
	case Percent:
		if x, ok := a.(Str); ok {
			return formatPercent(x, b, line)
		}
		return numericOp(op, a, b, line)
	case Minus, Slash, SlashSlash, StarStar:
		return numericOp(op, a, b, line)
	case Eq:
		return Bool(Equal(a, b)), nil
	case Ne:
		return Bool(!Equal(a, b)), nil
	case Lt, Gt, Le, Ge:
		c, err := Compare(a, b)
		if err != nil {
			return nil, &RuntimeError{Msg: err.Error(), Line: line}
		}
		switch op {
		case Lt:
			return Bool(c < 0), nil
		case Gt:
			return Bool(c > 0), nil
		case Le:
			return Bool(c <= 0), nil
		case Ge:
			return Bool(c >= 0), nil
		}
	}
	return nil, rtErrf(line, "unsupported operator %v", op)
}

func clampRepeat(n int) int {
	if n < 0 {
		return 0
	}
	if n > 1<<20 {
		return 1 << 20
	}
	return n
}

func repeatList(x *List, n int) *List {
	n = clampRepeat(n)
	out := make([]Value, 0, len(x.Elems)*n)
	for i := 0; i < n; i++ {
		out = append(out, x.Elems...)
	}
	return &List{Elems: out}
}

func numericOp(op Kind, a, b Value, line int) (Value, error) {
	ai, aIsInt := asInt(a)
	bi, bIsInt := asInt(b)
	if aIsInt && bIsInt {
		switch op {
		case Plus:
			return Int(ai + bi), nil
		case Minus:
			return Int(ai - bi), nil
		case Star:
			return Int(ai * bi), nil
		case Slash:
			if bi == 0 {
				return nil, rtErrf(line, "division by zero")
			}
			return Float(float64(ai) / float64(bi)), nil
		case SlashSlash:
			if bi == 0 {
				return nil, rtErrf(line, "integer division or modulo by zero")
			}
			return Int(floorDiv(ai, bi)), nil
		case Percent:
			if bi == 0 {
				return nil, rtErrf(line, "integer division or modulo by zero")
			}
			return Int(pyMod(ai, bi)), nil
		case StarStar:
			if bi >= 0 {
				return Int(ipow(ai, bi)), nil
			}
			return Float(math.Pow(float64(ai), float64(bi))), nil
		}
	}
	af, aok := numAsFloat(a)
	bf, bok := numAsFloat(b)
	if !aok || !bok {
		return nil, rtErrf(line, "unsupported operand type(s) for %v: '%s' and '%s'",
			op, a.Type(), b.Type())
	}
	switch op {
	case Plus:
		return Float(af + bf), nil
	case Minus:
		return Float(af - bf), nil
	case Star:
		return Float(af * bf), nil
	case Slash:
		if bf == 0 {
			return nil, rtErrf(line, "float division by zero")
		}
		return Float(af / bf), nil
	case SlashSlash:
		if bf == 0 {
			return nil, rtErrf(line, "float floor division by zero")
		}
		return Float(math.Floor(af / bf)), nil
	case Percent:
		if bf == 0 {
			return nil, rtErrf(line, "float modulo by zero")
		}
		m := math.Mod(af, bf)
		if m != 0 && (m < 0) != (bf < 0) {
			m += bf
		}
		return Float(m), nil
	case StarStar:
		return Float(math.Pow(af, bf)), nil
	}
	return nil, rtErrf(line, "unsupported operator %v", op)
}

func asInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case Int:
		return int64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func ipow(a, b int64) int64 {
	var r int64 = 1
	for i := int64(0); i < b; i++ {
		r *= a
	}
	return r
}

// formatPercent implements a useful subset of Python %-formatting:
// %s %d %f %.Nf %x %%.
func formatPercent(format Str, arg Value, line int) (Value, error) {
	var args []Value
	if t, ok := arg.(*Tuple); ok {
		args = t.Elems
	} else {
		args = []Value{arg}
	}
	var sb strings.Builder
	argi := 0
	s := string(format)
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return nil, rtErrf(line, "incomplete format")
		}
		if s[i] == '%' {
			sb.WriteByte('%')
			continue
		}
		spec := "%"
		for i < len(s) && (s[i] == '.' || s[i] == '-' || s[i] == '+' || s[i] == '0' || isDigit(s[i])) {
			spec += string(s[i])
			i++
		}
		if i >= len(s) {
			return nil, rtErrf(line, "incomplete format")
		}
		verb := s[i]
		if argi >= len(args) {
			return nil, rtErrf(line, "not enough arguments for format string")
		}
		a := args[argi]
		argi++
		switch verb {
		case 's':
			sb.WriteString(fmt.Sprintf(spec+"s", ToStr(a)))
		case 'd':
			n, ok := asInt(a)
			if !ok {
				if f, isf := a.(Float); isf {
					n = int64(f)
				} else {
					return nil, rtErrf(line, "%%d format: a number is required, not %s", a.Type())
				}
			}
			sb.WriteString(fmt.Sprintf(spec+"d", n))
		case 'f', 'g', 'e':
			f, ok := numAsFloat(a)
			if !ok {
				return nil, rtErrf(line, "float required, not %s", a.Type())
			}
			sb.WriteString(fmt.Sprintf(spec+string(verb), f))
		case 'x':
			n, ok := asInt(a)
			if !ok {
				return nil, rtErrf(line, "%%x format: an integer is required")
			}
			sb.WriteString(fmt.Sprintf(spec+"x", n))
		case 'r':
			sb.WriteString(fmt.Sprintf(spec+"s", a.Repr()))
		default:
			return nil, rtErrf(line, "unsupported format character %q", verb)
		}
	}
	if argi < len(args) {
		return nil, rtErrf(line, "not all arguments converted during string formatting")
	}
	return Str(sb.String()), nil
}

func iterate(v Value, line int) ([]Value, error) {
	switch x := v.(type) {
	case *List:
		out := make([]Value, len(x.Elems))
		copy(out, x.Elems)
		return out, nil
	case *Tuple:
		return x.Elems, nil
	case Str:
		out := make([]Value, 0, len(x))
		for _, r := range string(x) {
			out = append(out, Str(string(r)))
		}
		return out, nil
	case *Dict:
		return x.Keys(), nil
	}
	return nil, rtErrf(line, "'%s' object is not iterable", v.Type())
}

func contains(container, x Value, line int) (bool, error) {
	switch c := container.(type) {
	case *List:
		for _, e := range c.Elems {
			if Equal(e, x) {
				return true, nil
			}
		}
		return false, nil
	case *Tuple:
		for _, e := range c.Elems {
			if Equal(e, x) {
				return true, nil
			}
		}
		return false, nil
	case *Dict:
		_, ok := c.Get(x)
		return ok, nil
	case Str:
		s, ok := x.(Str)
		if !ok {
			return false, rtErrf(line, "'in <string>' requires string as left operand, not %s", x.Type())
		}
		return strings.Contains(string(c), string(s)), nil
	}
	return false, rtErrf(line, "argument of type '%s' is not iterable", container.Type())
}

func listIndex(l *List, idx Value, line int) (int, error) {
	n, ok := asInt(idx)
	if !ok {
		return 0, rtErrf(line, "list indices must be integers, not %s", idx.Type())
	}
	i := int(n)
	if i < 0 {
		i += len(l.Elems)
	}
	if i < 0 || i >= len(l.Elems) {
		return 0, rtErrf(line, "list index out of range")
	}
	return i, nil
}

func getIndex(obj, idx Value, line int) (Value, error) {
	switch c := obj.(type) {
	case *List:
		i, err := listIndex(c, idx, line)
		if err != nil {
			return nil, err
		}
		return c.Elems[i], nil
	case *Tuple:
		n, ok := asInt(idx)
		if !ok {
			return nil, rtErrf(line, "tuple indices must be integers")
		}
		i := int(n)
		if i < 0 {
			i += len(c.Elems)
		}
		if i < 0 || i >= len(c.Elems) {
			return nil, rtErrf(line, "tuple index out of range")
		}
		return c.Elems[i], nil
	case Str:
		n, ok := asInt(idx)
		if !ok {
			return nil, rtErrf(line, "string indices must be integers")
		}
		ch, ok := strIndex(string(c), int(n))
		if !ok {
			return nil, rtErrf(line, "string index out of range")
		}
		return Str(ch), nil
	case *Dict:
		v, ok := c.Get(idx)
		if !ok {
			return nil, rtErrf(line, "KeyError: %s", idx.Repr())
		}
		return v, nil
	}
	return nil, rtErrf(line, "'%s' object is not subscriptable", obj.Type())
}

func setIndex(obj, idx, val Value, line int) error {
	switch c := obj.(type) {
	case *List:
		i, err := listIndex(c, idx, line)
		if err != nil {
			return err
		}
		c.Elems[i] = val
		return nil
	case *Dict:
		if err := c.Set(idx, val); err != nil {
			return &RuntimeError{Msg: err.Error(), Line: line}
		}
		return nil
	}
	return rtErrf(line, "'%s' object does not support item assignment", obj.Type())
}

func getSlice(obj, lo, hi Value, line int) (Value, error) {
	bounds := func(n int) (int, int, error) {
		start, end := 0, n
		if lo != nil {
			li, ok := asInt(lo)
			if !ok {
				return 0, 0, rtErrf(line, "slice indices must be integers")
			}
			start = int(li)
			if start < 0 {
				start += n
			}
			start = clamp(start, 0, n)
		}
		if hi != nil {
			hiN, ok := asInt(hi)
			if !ok {
				return 0, 0, rtErrf(line, "slice indices must be integers")
			}
			end = int(hiN)
			if end < 0 {
				end += n
			}
			end = clamp(end, 0, n)
		}
		if end < start {
			end = start
		}
		return start, end, nil
	}
	switch c := obj.(type) {
	case *List:
		s, e, err := bounds(len(c.Elems))
		if err != nil {
			return nil, err
		}
		out := make([]Value, e-s)
		copy(out, c.Elems[s:e])
		return &List{Elems: out}, nil
	case *Tuple:
		s, e, err := bounds(len(c.Elems))
		if err != nil {
			return nil, err
		}
		out := make([]Value, e-s)
		copy(out, c.Elems[s:e])
		return &Tuple{Elems: out}, nil
	case Str:
		out, err := strSlice(string(c), bounds)
		if err != nil {
			return nil, err
		}
		return Str(out), nil
	}
	return nil, rtErrf(line, "'%s' object is not sliceable", obj.Type())
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func setAttr(obj Value, name string, val Value, line int) error {
	switch o := obj.(type) {
	case *Object:
		o.Attrs[name] = val
		return nil
	case *ModuleVal:
		o.Attrs[name] = val
		return nil
	}
	return rtErrf(line, "'%s' object has no settable attribute '%s'", obj.Type(), name)
}
