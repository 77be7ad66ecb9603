package minipy

import "sort"

// Env is a lexical environment: a frame of name bindings with a parent
// link. Module globals are an Env with a nil parent; function locals
// chain to their closure Env (for nested functions) and finally to the
// module globals.
type Env struct {
	vars   map[string]Value
	parent *Env
	// escaped marks an environment captured by a closure (directly or
	// as an ancestor frame). The interpreter recycles function-local
	// frames after a call returns; an escaped frame is left alone.
	escaped bool
}

// NewEnv creates an environment with the given parent (nil for module
// globals).
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]Value{}, parent: parent}
}

// Get resolves a name through the environment chain.
func (e *Env) Get(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// GetLocal resolves a name in this frame only.
func (e *Env) GetLocal(name string) (Value, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Set binds a name in this frame.
func (e *Env) Set(name string, v Value) { e.vars[name] = v }

// Delete removes a binding from this frame, reporting whether it
// existed.
func (e *Env) Delete(name string) bool {
	if _, ok := e.vars[name]; ok {
		delete(e.vars, name)
		return true
	}
	return false
}

// Parent returns the enclosing environment, or nil.
func (e *Env) Parent() *Env { return e.parent }

// Names returns the names bound directly in this frame, sorted.
func (e *Env) Names() []string {
	names := make([]string, 0, len(e.vars))
	for k := range e.vars {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Root returns the outermost environment in the chain (the module
// globals frame).
func (e *Env) Root() *Env {
	env := e
	for env.parent != nil {
		env = env.parent
	}
	return env
}

// Clone makes a shallow copy of the whole environment chain. Frames are
// copied; values are shared. This approximates fork()'s copy-on-write
// semantics for the library fork execution mode: the child can rebind
// names freely without disturbing the parent, while large values (models,
// datasets) remain shared.
func (e *Env) Clone() *Env {
	if e == nil {
		return nil
	}
	c := &Env{vars: make(map[string]Value, len(e.vars)), parent: e.parent.Clone()}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	return c
}
