package layers

import (
	"fmt"

	"repro/internal/hoist"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
	"repro/internal/poncho"
	"repro/taskvine"
)

// app runs the LNNI source in a fresh full-environment interpreter and
// returns it with the named function.
func app(name string) (*minipy.Interp, *minipy.Func, error) {
	ip := minipy.NewInterp(host{reg: modlib.Standard()})
	env, err := ip.RunModule(LNNIApp+"\ndef noop(x):\n    return x\n", "__main__")
	if err != nil {
		return nil, nil, err
	}
	fn, err := taskvine.FuncFrom(env, name)
	return ip, fn, err
}

// pickleAndMinipy: the serialisation and interpreter floor under every
// invocation (argument tuple, no-op call) and under every stateless
// task (function pickle, module load).
func (s *suite) pickleAndMinipy() error {
	ip, task, err := app("classify_task")
	if err != nil {
		return err
	}
	_, noop, err := app("noop")
	if err != nil {
		return err
	}

	args := minipy.NewTuple(minipy.Int(1234567890123))
	argData, err := pickle.Marshal(args)
	if err != nil {
		return err
	}
	fnData, err := pickle.Marshal(task)
	if err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	s.out["pickle.marshal_args_ns"] = s.perCall("pickle.marshal_args", 20000, func() {
		_, err := pickle.Marshal(args)
		note(err)
	})
	s.out["pickle.unmarshal_args_ns"] = s.perCall("pickle.unmarshal_args", 20000, func() {
		_, err := pickle.Unmarshal(argData, ip)
		note(err)
	})
	s.out["pickle.marshal_func_ns"] = s.perCall("pickle.marshal_func", 2000, func() {
		_, err := pickle.Marshal(task)
		note(err)
	})
	s.out["pickle.unmarshal_func_ns"] = s.perCall("pickle.unmarshal_func", 2000, func() {
		_, err := pickle.Unmarshal(fnData, ip)
		note(err)
	})
	callArgs := []minipy.Value{minipy.Int(7)}
	s.out["minipy.call_ns"] = s.perCall("minipy.call", 20000, func() {
		_, err := ip.Call(noop, callArgs, nil)
		note(err)
	})
	reg := modlib.Standard()
	ns := s.perCall("minipy.module_load", 200, func() {
		fresh := minipy.NewInterp(host{reg: reg})
		_, err := fresh.RunModule("import resnet\nimport imageproc\n", "probe")
		note(err)
	})
	s.out["minipy.module_load_us"] = ns / 1e3
	return failed
}

// discover: the Discover step's parts (hoist scan, poncho resolve and
// pack) and the two taskvine entry points that contain them.
func (s *suite) discover() error {
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	env, err := m.Exec(LNNIApp)
	if err != nil {
		return err
	}
	task, err := taskvine.FuncFrom(env, "classify_task")
	if err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	ns := s.perCall("hoist.analyze", 200, func() {
		_, err := hoist.Split(task)
		note(err)
	})
	s.out["hoist.analyze_us"] = ns / 1e3

	mods := poncho.ScanFunction(task)
	ns = s.perCall("poncho.resolve", 20, func() {
		_, err := poncho.Resolve(m.Index(), mods)
		note(err)
	})
	s.out["poncho.resolve_ms"] = ns / 1e6
	envSpec, err := poncho.Resolve(m.Index(), mods)
	if err != nil {
		return err
	}
	ns = s.perCall("poncho.pack", 20, func() {
		_, err := envSpec.Pack("probe-env.tar.gz")
		note(err)
	})
	s.out["poncho.pack_ms"] = ns / 1e6

	i := 0
	ns = s.perCall("taskvine.create_library", 10, func() {
		i++
		_, err := m.CreateLibraryFromFunctions(fmt.Sprintf("probe%d", i), taskvine.LibraryOptions{ContextSetup: "context_setup", Slots: 4}, env, "classify")
		note(err)
	})
	s.out["taskvine.create_library_ms"] = ns / 1e6
	ns = s.perCall("taskvine.wrap_function", 10, func() {
		_, err := m.WrapFunction(task)
		note(err)
	})
	s.out["taskvine.wrap_function_ms"] = ns / 1e6
	return failed
}

// library: starting an instance of the LNNI library (functions rebuilt,
// context_setup run) and serving one no-op invocation from a warm one.
func (s *suite) library() error {
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	env, err := m.Exec(LNNIApp + "\ndef noop(x):\n    return x\n")
	if err != nil {
		return err
	}
	lnni, err := m.CreateLibraryFromFunctions("mllib", taskvine.LibraryOptions{ContextSetup: "context_setup", Slots: 4}, env, "classify")
	if err != nil {
		return err
	}
	noopLib, err := m.CreateLibraryFromFunctions("dispatch", taskvine.LibraryOptions{Slots: 16}, env, "noop")
	if err != nil {
		return err
	}
	reg := modlib.Standard()
	newHost := func() *library.Host {
		return &library.Host{Resolve: func(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) { return reg.Build(name) }}
	}
	var failed error
	ns := s.perCall("library.start", 20, func() {
		if _, err := library.Start(*lnni.Spec(), "mllib@probe", newHost()); err != nil && failed == nil {
			failed = err
		}
	})
	s.out["library.start_ms"] = ns / 1e6

	lib, err := library.Start(*noopLib.Spec(), "dispatch@probe", newHost())
	if err != nil {
		return err
	}
	args, err := pickle.Marshal(minipy.NewTuple(minipy.Int(1234567890123)))
	if err != nil {
		return err
	}
	s.out["library.invoke_ns"] = s.perCall("library.invoke", 20000, func() {
		if _, err := lib.Invoke("noop", args); err != nil && failed == nil {
			failed = err
		}
	})
	return failed
}
