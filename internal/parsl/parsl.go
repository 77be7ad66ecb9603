// Package parsl implements the parallel-library layer of Figure 1: a
// Parsl-like dataflow kernel where applications invoke functions that
// return futures, futures chain into a DAG, and ready invocations
// stream to an executor. The TaskVineExecutor (§3.6) adapts that
// stream onto the TaskVine engine, packaging each invocation as either
// a stateless Task (L1/L2) or a FunctionCall against an automatically
// created library (L3).
package parsl

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/taskvine"
)

// Future is the promise returned by Submit. It resolves exactly once.
type Future struct {
	done chan struct{}
	val  minipy.Value
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) resolve(v minipy.Value, err error) {
	f.val = v
	f.err = err
	close(f.done)
}

// Result blocks until the future resolves.
func (f *Future) Result() (minipy.Value, error) {
	<-f.done
	return f.val, f.err
}

// Done reports whether the future has resolved without blocking.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Executor runs one ready invocation to completion.
type Executor interface {
	Execute(fn *minipy.Func, args []minipy.Value) (minipy.Value, error)
}

// DFK is the dataflow kernel: it tracks the DAG of pending invocations
// (via futures used as arguments) and sends ready ones to the
// executor.
type DFK struct {
	exec Executor
	wg   sync.WaitGroup

	mu        sync.Mutex
	submitted int64
	completed int64
	failed    int64
}

// NewDFK creates a dataflow kernel over an executor.
func NewDFK(exec Executor) *DFK {
	return &DFK{exec: exec}
}

// Stats returns submitted/completed/failed invocation counts.
func (d *DFK) Stats() (submitted, completed, failed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.submitted, d.completed, d.failed
}

// Submit registers an invocation of fn. Arguments may be plain MiniPy
// values or *Future results of earlier invocations; the invocation
// launches once every future argument has resolved, giving the DAG
// semantics of Parsl apps.
func (d *DFK) Submit(fn *minipy.Func, args ...any) *Future {
	fut := newFuture()
	d.mu.Lock()
	d.submitted++
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		resolved := make([]minipy.Value, len(args))
		for i, a := range args {
			switch x := a.(type) {
			case *Future:
				v, err := x.Result()
				if err != nil {
					fut.resolve(nil, fmt.Errorf("parsl: dependency failed: %w", err))
					d.countFail()
					return
				}
				resolved[i] = v
			case minipy.Value:
				resolved[i] = x
			default:
				fut.resolve(nil, fmt.Errorf("parsl: argument %d has unsupported type %T", i, a))
				d.countFail()
				return
			}
		}
		v, err := d.exec.Execute(fn, resolved)
		if err != nil {
			d.countFail()
		} else {
			d.mu.Lock()
			d.completed++
			d.mu.Unlock()
		}
		fut.resolve(v, err)
	}()
	return fut
}

func (d *DFK) countFail() {
	d.mu.Lock()
	d.failed++
	d.mu.Unlock()
}

// Wait blocks until every submitted invocation has resolved.
func (d *DFK) Wait() { d.wg.Wait() }

// ---- TaskVineExecutor ----

// Mode selects how the executor packages invocations (§3.6: "packages
// the invocation into either a TaskVine Task or FunctionCall").
type Mode int

const (
	// ModeTask wraps every invocation as a stateless task at the given
	// reuse level (L1 or L2).
	ModeTask Mode = iota
	// ModeFunctionCall creates one library per distinct function and
	// submits lightweight FunctionCalls (L3).
	ModeFunctionCall
)

// ExecutorOptions configures a TaskVineExecutor.
type ExecutorOptions struct {
	Mode Mode
	// Level is the reuse level for ModeTask (L1 or L2).
	Level core.ReuseLevel
	// Resources per invocation.
	Resources core.Resources
	// Slots per library instance in ModeFunctionCall.
	Slots int
	// ExecMode for libraries (direct or fork).
	ExecMode core.ExecMode
}

// TaskVineExecutor is the §3.6 integration: a service that receives an
// arbitrary stream of function invocations from the DFK and runs them
// through a TaskVine manager.
type TaskVineExecutor struct {
	m    *taskvine.Manager
	opts ExecutorOptions

	mu      sync.Mutex
	wrapped map[*minipy.Func]*taskvine.WrappedFunction
	libs    map[string]bool // function name → library created
	waiters map[int64]chan core.Result
	orphans map[int64]core.Result // results that arrived before their waiter
	stop    chan struct{}
}

// NewTaskVineExecutor creates the executor over an existing manager.
func NewTaskVineExecutor(m *taskvine.Manager, opts ExecutorOptions) *TaskVineExecutor {
	if opts.Mode == ModeTask && opts.Level == 0 {
		opts.Level = core.L2
	}
	if opts.Slots == 0 {
		opts.Slots = 4
	}
	e := &TaskVineExecutor{
		m:       m,
		opts:    opts,
		wrapped: map[*minipy.Func]*taskvine.WrappedFunction{},
		libs:    map[string]bool{},
		waiters: map[int64]chan core.Result{},
		orphans: map[int64]core.Result{},
		stop:    make(chan struct{}),
	}
	go e.collect()
	return e
}

// collect routes manager results to the per-invocation waiters.
// Results that arrive before their waiter registers (the submit→claim
// window) are parked in orphans.
func (e *TaskVineExecutor) collect() {
	for {
		select {
		case res := <-e.m.Results():
			e.mu.Lock()
			ch, ok := e.waiters[res.ID]
			if ok {
				delete(e.waiters, res.ID)
			} else {
				e.orphans[res.ID] = res
			}
			e.mu.Unlock()
			if ok {
				ch <- res
			}
		case <-e.stop:
			return
		}
	}
}

// claim attaches a waiter channel to an invocation ID, delivering
// immediately if the result already arrived.
func (e *TaskVineExecutor) claim(id int64, ch chan core.Result) {
	e.mu.Lock()
	if res, ok := e.orphans[id]; ok {
		delete(e.orphans, id)
		e.mu.Unlock()
		ch <- res
		return
	}
	e.waiters[id] = ch
	e.mu.Unlock()
}

// Close stops the executor's collector.
func (e *TaskVineExecutor) Close() { close(e.stop) }

// Execute implements Executor.
func (e *TaskVineExecutor) Execute(fn *minipy.Func, args []minipy.Value) (minipy.Value, error) {
	ch := make(chan core.Result, 1)
	var id int64
	var err error
	switch e.opts.Mode {
	case ModeTask:
		id, err = e.executeAsTask(fn, args, ch)
	case ModeFunctionCall:
		id, err = e.executeAsCall(fn, args, ch)
	default:
		return nil, fmt.Errorf("parsl: unknown executor mode %d", e.opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	res := <-ch
	_ = id
	if !res.Ok {
		return nil, fmt.Errorf("parsl: invocation failed: %s", res.Err)
	}
	return e.m.DecodeValue(res)
}

func (e *TaskVineExecutor) executeAsTask(fn *minipy.Func, args []minipy.Value, ch chan core.Result) (int64, error) {
	e.mu.Lock()
	w, ok := e.wrapped[fn]
	e.mu.Unlock()
	if !ok {
		var err error
		w, err = e.m.WrapFunction(fn)
		if err != nil {
			return 0, err
		}
		e.mu.Lock()
		e.wrapped[fn] = w
		e.mu.Unlock()
	}
	id, err := e.m.SubmitWrappedCall(w, e.opts.Level, e.opts.Resources, args...)
	if err != nil {
		return 0, err
	}
	e.claim(id, ch)
	return id, nil
}

func (e *TaskVineExecutor) executeAsCall(fn *minipy.Func, args []minipy.Value, ch chan core.Result) (int64, error) {
	name := fn.Name
	if name == "" {
		name = fmt.Sprintf("lambda_%p", fn)
	}
	libName := "parsl-" + name
	// Serialize library creation per executor so concurrent invocations
	// of a new function produce exactly one library.
	e.mu.Lock()
	if !e.libs[libName] {
		lib, err := e.m.CreateLibraryFromFunc(libName, name, fn, taskvine.LibraryOptions{
			Slots:     e.opts.Slots,
			Mode:      e.opts.ExecMode,
			Resources: e.opts.Resources,
		})
		if err != nil {
			e.mu.Unlock()
			return 0, err
		}
		if err := e.m.InstallLibrary(lib); err != nil {
			e.mu.Unlock()
			return 0, err
		}
		e.libs[libName] = true
	}
	e.mu.Unlock()
	id, err := e.m.Call(libName, name, args...)
	if err != nil {
		return 0, err
	}
	e.claim(id, ch)
	return id, nil
}
