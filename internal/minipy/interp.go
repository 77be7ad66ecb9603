package minipy

import (
	"fmt"
	"math"
	"sync"
)

// Host provides the interpreter's view of its surroundings: which
// modules are importable (on a worker this is the unpacked software
// environment). Implementations live in the worker and library
// runtimes.
type Host interface {
	// ResolveModule returns the module for an import statement, or an
	// error if the module is not installed in the current environment.
	ResolveModule(ip *Interp, name string) (*ModuleVal, error)
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

// returnSignal is the sentinel error a return statement propagates out
// of exec until the enclosing call catches it.
type returnSignal struct{}

func (returnSignal) Error() string { return "return outside function" }

// errReturn is the singleton return signal; the value travels in the
// frame (frame.ret), so signalling a return allocates nothing.
var errReturn error = returnSignal{}

// Interp executes MiniPy programs. An Interp is not safe for concurrent
// use; library fork mode creates a child Interp sharing the Host and
// the module table (which is independently locked, since forked
// children run concurrently). An Interp must not be copied: NewInterp
// returns one, and Init readies one held in place by its owner.
type Interp struct {
	host Host
	// shared is a forked child's import table: its root's, locked, since
	// the family runs concurrently. Nil for a root, whose table is own.
	shared *moduleTable
	own    moduleTable
	steps  int64
	// StepLimit bounds the number of statements+expressions evaluated,
	// guarding against runaway loops in untrusted task code. Zero means
	// no limit.
	StepLimit int64
	depth     int
	// MaxDepth bounds call recursion.
	MaxDepth int
	// Code, when set, is the worker's code cache: RunModule and the
	// rebuild of a pickled function parse each text once through it.
	// Nil parses every text.
	Code *CodeCache
	// envFree recycles function-local environments between calls: a
	// call whose frame was not captured by a closure returns its Env
	// (and its bucket memory) here instead of to the garbage collector.
	// Its first envInline entries are envBuf's.
	envFree []*Env
	envBuf  [envInline]*Env
}

// envInline is how many recycled frames an interpreter keeps without a
// list of its own: as deep as the calls of a short task nest.
const envInline = 4

// defaultHost is used when no host is supplied: no importable modules.
type defaultHost struct{}

func (defaultHost) ResolveModule(_ *Interp, name string) (*ModuleVal, error) {
	return nil, fmt.Errorf("no module named '%s'", name)
}

// NewInterp creates an interpreter with the given host. A nil host
// yields an interpreter with no importable modules.
func NewInterp(host Host) *Interp {
	ip := new(Interp)
	ip.Init(host)
	return ip
}

// Init readies a zero Interp as NewInterp does, in place: a worker's
// task record holds its interpreter rather than allocating one.
func (ip *Interp) Init(host Host) {
	if host == nil {
		host = defaultHost{}
	}
	ip.host, ip.MaxDepth = host, 200
}

// inlineModules is how many imports a module table holds before it
// needs a map: a task imports vine_runtime and what its function does.
const inlineModules = 4

// moduleTable is an interpreter's import cache: a root interpreter's
// own, shared with its forked children.
type moduleTable struct {
	mu   sync.Mutex
	n    int
	few  [inlineModules]importedModule
	more map[string]*ModuleVal
}

type importedModule struct {
	name string
	mod  *ModuleVal
}

func (c *moduleTable) get(name string) (*ModuleVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.few[:c.n] {
		if m.name == name {
			return m.mod, true
		}
	}
	v, ok := c.more[name]
	return v, ok
}

// put records an import; a fork that resolved name at the same time as
// another replaces its entry, as a map store would.
func (c *moduleTable) put(name string, mod *ModuleVal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.few[:c.n] {
		if c.few[i].name == name {
			c.few[i].mod = mod
			return
		}
	}
	if c.n < inlineModules {
		c.few[c.n] = importedModule{name, mod}
		c.n++
		return
	}
	if c.more == nil {
		c.more = map[string]*ModuleVal{}
	}
	c.more[name] = mod
}

// modules is the interpreter's import table.
func (ip *Interp) modules() *moduleTable {
	if ip.shared != nil {
		return ip.shared
	}
	return &ip.own
}

// Host returns the interpreter's host.
func (ip *Interp) Host() Host { return ip.host }

// Fork creates a child interpreter sharing the host and module table,
// used by the library fork execution mode.
func (ip *Interp) Fork() *Interp {
	return &Interp{host: ip.host, shared: ip.modules(), StepLimit: ip.StepLimit, MaxDepth: ip.MaxDepth, Code: ip.Code}
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

// RunModule parses (through ip.Code) and executes src as a module body
// in a fresh globals environment, returning the globals. The source text
// is remembered on functions it defines, enabling source extraction.
func (ip *Interp) RunModule(src, modName string) (*Env, error) {
	mod, err := ip.Code.Module(src)
	if err != nil {
		return nil, err
	}
	globals := ip.NewGlobals()
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

// Call invokes a callable MiniPy value with the given positional
// arguments. MiniPy has no keyword arguments: kwargs must be empty.
func (ip *Interp) Call(fn Value, args []Value, kwargs map[string]Value) (Value, error) {
	if len(kwargs) > 0 {
		return nil, &RuntimeError{Msg: "keyword arguments are not supported"}
	}
	return ip.callValue(fn, args, 0)
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
		val, err := ip.eval(st.Value, fr)
		if err != nil {
			return err
		}
		if st.Op == PlusAssign {
			cur, err := ip.eval(st.Target, fr)
			if err != nil {
				return err
			}
			if val, err = binaryOp(Plus, cur, val, st.Pos()); err != nil {
				return err
			}
		}
		return ip.assignTo(st.Target, val, fr)
	case *DefStmt:
		fn, err := ip.newFunc(st.Name, st.Params, fr)
		if err != nil {
			return err
		}
		fn.Body, fn.Doc, fn.Def, fn.Source = st.Body, st.Doc, st, fr.src
		fr.env.Set(st.Name, fn)
		return nil
	case *ReturnStmt:
		var v Value = NoneValue
		if st.Value != nil {
			var err error
			if v, err = ip.eval(st.Value, fr); err != nil {
				return err
			}
		}
		fr.ret = v
		return errReturn
	case *IfStmt:
		cond, err := ip.eval(st.Cond, fr)
		if err != nil || !cond.Truth() {
			return err
		}
		return ip.execBlock(st.Body, fr)
	case *WhileStmt:
		for {
			cond, err := ip.eval(st.Cond, fr)
			if err != nil || !cond.Truth() {
				return err
			}
			if err := ip.execBlock(st.Body, fr); err != nil {
				return err
			}
		}
	case *ForStmt:
		iter, err := ip.eval(st.Iter, fr)
		if err != nil {
			return err
		}
		l, ok := iter.(*List)
		if !ok {
			return rtErrf(st.Pos(), "'%s' object is not iterable", iter.Type())
		}
		// The loop runs over the list as it was when the loop began.
		for _, item := range append([]Value(nil), l.Elems...) {
			ip.setName(st.Target, item, fr)
			if err := ip.execBlock(st.Body, fr); err != nil {
				return err
			}
		}
		return nil
	case *ImportStmt:
		mod, err := ip.importModule(st.Item.Module, st.Pos())
		if err != nil {
			return err
		}
		// Respect `global name` declarations, as Python does.
		ip.setName(st.Item.Alias, mod, fr)
		return nil
	case *FromImportStmt:
		mod, err := ip.importModule(st.Module, st.Pos())
		if err != nil {
			return err
		}
		v, ok := mod.Attrs[st.Item.Module]
		if !ok {
			return rtErrf(st.Pos(), "cannot import name '%s' from '%s'", st.Item.Module, st.Module)
		}
		ip.setName(st.Item.Alias, v, fr)
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
	case *RaiseStmt:
		v, err := ip.eval(st.Value, fr)
		if err != nil {
			return err
		}
		return &RuntimeError{Msg: ToStr(v), Line: st.Pos()}
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

// newFunc makes the function a def or lambda evaluates to: it closes
// over the frame's environment below module level, and its defaults
// are evaluated now, at definition time.
func (ip *Interp) newFunc(name string, params []Param, fr *frame) (*Func, error) {
	fn := &Func{Name: name, Globals: fr.env.Root(), Module: fr.module}
	if fr.env.Parent() != nil {
		fn.Closure = fr.env
		markEscaped(fr.env)
	}
	fn.Params = make([]Param, len(params))
	copy(fn.Params, params)
	for i, p := range params {
		if p.Default != nil {
			v, err := ip.eval(p.Default, fr)
			if err != nil {
				return nil, err
			}
			fn.Params[i].Default = &evaluatedDefault{value: v, orig: p.Default}
		}
	}
	return fn, nil
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

// setName binds name respecting any `global` declaration in the frame.
func (ip *Interp) setName(name string, v Value, fr *frame) {
	if fr.isGlobal(name) {
		fr.env.Root().Set(name, v)
		return
	}
	fr.env.Set(name, v)
}

func (ip *Interp) assignTo(target Expr, val Value, fr *frame) error {
	switch t := target.(type) {
	case *NameExpr:
		ip.setName(t.Name, val, fr)
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

func (ip *Interp) importModule(name string, line int) (*ModuleVal, error) {
	if m, ok := ip.modules().get(name); ok {
		return m, nil
	}
	m, err := ip.host.ResolveModule(ip, name)
	if err != nil {
		return nil, &RuntimeError{Msg: err.Error(), Line: line}
	}
	ip.modules().put(name, m)
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
		env := fr.env
		if fr.isGlobal(ex.Name) {
			env = env.Root()
		}
		if v, ok := env.Get(ex.Name); ok {
			return v, nil
		}
		return nil, rtErrf(ex.Pos(), "name '%s' is not defined", ex.Name)
	case *ListLit:
		elems, err := ip.evalAll(ex.Elems, fr)
		if err != nil {
			return nil, err
		}
		return &List{Elems: elems}, nil
	case *TupleExpr:
		elems, err := ip.evalAll(ex.Elems, fr)
		if err != nil {
			return nil, err
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
	case *UnaryExpr:
		v, err := ip.eval(ex.Operand, fr)
		if err != nil {
			return nil, err
		}
		switch n := v.(type) {
		case Int:
			return -n, nil
		case Float:
			return -n, nil
		}
		return nil, rtErrf(ex.Pos(), "bad operand type for unary -: '%s'", v.Type())
	case *LambdaExpr:
		fn, err := ip.newFunc("", ex.Params, fr)
		if err != nil {
			return nil, err
		}
		fn.Expr = ex.Body
		return fn, nil
	case *CallExpr:
		fn, err := ip.eval(ex.Func, fr)
		if err != nil {
			return nil, err
		}
		args, err := ip.evalAll(ex.Args, fr)
		if err != nil {
			return nil, err
		}
		return ip.callValue(fn, args, ex.Pos())
	case *AttrExpr:
		obj, err := ip.eval(ex.X, fr)
		if err != nil {
			return nil, err
		}
		return getAttr(obj, ex.Name, ex.Pos())
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
	}
	return nil, rtErrf(e.Pos(), "unsupported expression %T", e)
}

func (ip *Interp) evalAll(es []Expr, fr *frame) ([]Value, error) {
	vals := make([]Value, len(es))
	for i, e := range es {
		v, err := ip.eval(e, fr)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// callValue dispatches a call on any callable value.
func (ip *Interp) callValue(fn Value, args []Value, line int) (Value, error) {
	ip.depth++
	defer func() { ip.depth-- }()
	if ip.MaxDepth > 0 && ip.depth > ip.MaxDepth {
		return nil, rtErrf(line, "maximum recursion depth exceeded")
	}
	var v Value
	var err error
	switch f := fn.(type) {
	case *Func:
		return ip.callFunc(f, args, line)
	case *Builtin:
		v, err = f.Fn(ip, args)
	case *BoundMethod:
		v, err = f.Fn(f.Recv, args)
	default:
		return nil, rtErrf(line, "'%s' object is not callable", fn.Type())
	}
	if err != nil {
		if _, ok := err.(*RuntimeError); !ok {
			err = &RuntimeError{Msg: err.Error(), Line: line}
		}
		return nil, err
	}
	return v, nil
}

func (ip *Interp) callFunc(f *Func, args []Value, line int) (Value, error) {
	parent := f.Globals
	if f.Closure != nil {
		parent = f.Closure
	}
	locals := ip.newLocalEnv(parent)
	if err := bindParams(f, args, locals, line); err != nil {
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
	if ip.envFree == nil {
		ip.envFree = ip.envBuf[:0]
	}
	ip.envFree = append(ip.envFree, e)
}

// markEscaped pins a captured frame and its ancestors against frame
// recycling.
func markEscaped(e *Env) {
	for ; e != nil && !e.escaped; e = e.parent {
		e.escaped = true
	}
}

func bindParams(f *Func, args []Value, locals *Env, line int) error {
	name := f.Name
	if name == "" {
		name = "<lambda>"
	}
	if len(args) > len(f.Params) {
		return rtErrf(line, "%s() takes %d positional arguments but %d were given",
			name, len(f.Params), len(args))
	}
	for i, p := range f.Params {
		switch ed, ok := p.Default.(*evaluatedDefault); {
		case i < len(args):
			locals.Set(p.Name, args[i])
		case ok:
			locals.Set(p.Name, ed.value)
		case p.Default != nil:
			return rtErrf(line, "internal: unevaluated default for %s", p.Name)
		default:
			return rtErrf(line, "%s() missing required argument: '%s'", name, p.Name)
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
		return numericOp(op, a, b, line)
	case Minus, Star, Slash, SlashSlash, Percent:
		return numericOp(op, a, b, line)
	case Eq, Ne:
		eq, err := equal(a, b, 0)
		if err != nil {
			return nil, &RuntimeError{Msg: err.Error(), Line: line}
		}
		return Bool(eq == (op == Eq)), nil
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
		}
		return Bool(c >= 0), nil
	}
	return nil, rtErrf(line, "unsupported operator %v", op)
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
		case SlashSlash, Percent:
			if bi == 0 {
				return nil, rtErrf(line, "integer division or modulo by zero")
			}
			if op == SlashSlash {
				return Int(floorDiv(ai, bi)), nil
			}
			return Int(pyMod(ai, bi)), nil
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
	}
	if bf == 0 {
		return nil, rtErrf(line, "float division or modulo by zero")
	}
	switch op {
	case Slash:
		return Float(af / bf), nil
	case SlashSlash:
		return Float(math.Floor(af / bf)), nil
	}
	m := math.Mod(af, bf)
	if m != 0 && (m < 0) != (bf < 0) {
		m += bf
	}
	return Float(m), nil
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
		return getIndex(&List{Elems: c.Elems}, idx, line)
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
