package modlib

import (
	"fmt"
	"math"

	"repro/internal/minipy"
)

// This file implements the application-facing modules: the ResNet50
// inference stack used by LNNI and the chemistry/ML stack used by
// ExaMol. Compute is deterministic pseudo-work so results are
// reproducible and fast enough for the real engine; the paper-scale
// timing is modeled separately by the simulator's cost model.

// resnetHandle is the in-memory model state a loaded ResNet carries.
// It lives in Object.Host, which pickle refuses to serialize — loading
// the model is precisely the kind of context setup (§2.1.3) that must
// be re-done by a context-setup function on each worker rather than
// shipped with every invocation.
type resnetHandle struct {
	layers  int
	classes int
	seed    uint64
}

// inferOne runs one deterministic pseudo-inference. The work loop
// touches every layer so the cost scales with model depth.
func (h *resnetHandle) inferOne(image int64) int64 {
	state := h.seed ^ uint64(image)
	acc := uint64(0)
	for layer := 0; layer < h.layers; layer++ {
		for k := 0; k < 12; k++ {
			acc ^= splitmix64(&state)
		}
	}
	return int64(acc % uint64(h.classes))
}

func buildResnet() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "resnet", Attrs: map[string]minipy.Value{}}
	m.Attrs["load_model"] = fn("load_model", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		name := "resnet50"
		if len(args) > 0 {
			s, err := wantStr(args, 0, "load_model")
			if err != nil {
				return nil, err
			}
			name = s
		}
		// "Loading parameters and building the model" — the expensive
		// deterministic setup the library hoists out of invocations.
		state := uint64(len(name) + 50)
		var checksum uint64
		for i := 0; i < 200000; i++ {
			checksum ^= splitmix64(&state)
		}
		model := minipy.NewObject("ResNetModel")
		model.Attrs["name"] = minipy.Str(name)
		model.Attrs["classes"] = minipy.Int(1000)
		model.Attrs["checksum"] = minipy.Int(int64(checksum % 1000000))
		h := &resnetHandle{layers: 50, classes: 1000, seed: checksum}
		model.Host = h
		model.Attrs["infer"] = fn("infer", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
			img, err := wantInt(args, 0, "infer")
			if err != nil {
				return nil, err
			}
			return minipy.Int(h.inferOne(img)), nil
		})
		model.Attrs["infer_batch"] = fn("infer_batch", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
			batch, err := wantList(args, 0, "infer_batch")
			if err != nil {
				return nil, err
			}
			out := &minipy.List{}
			for _, im := range batch.Elems {
				img, ok := im.(minipy.Int)
				if !ok {
					return nil, fmt.Errorf("infer_batch() images must be ints, got %s", im.Type())
				}
				out.Elems = append(out.Elems, minipy.Int(h.inferOne(int64(img))))
			}
			return out, nil
		})
		return model, nil
	})
	return m
}

func buildImageproc() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "imageproc", Attrs: map[string]minipy.Value{}}
	m.Attrs["generate_batch"] = fn("generate_batch", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		seed, err := wantInt(args, 0, "generate_batch")
		if err != nil {
			return nil, err
		}
		n, err := wantInt(args, 1, "generate_batch")
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<20 {
			return nil, fmt.Errorf("generate_batch() count %d out of range", n)
		}
		state := uint64(seed)
		out := &minipy.List{}
		for i := int64(0); i < n; i++ {
			out.Elems = append(out.Elems, minipy.Int(int64(splitmix64(&state)%1000000)))
		}
		return out, nil
	})
	m.Attrs["normalize"] = fn("normalize", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		img, err := wantInt(args, 0, "normalize")
		if err != nil {
			return nil, err
		}
		return minipy.Int(img % 1000000), nil
	})
	return m
}

// ---- chemistry stack ----

func buildChemtools() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "chemtools", Attrs: map[string]minipy.Value{}}
	m.Attrs["parse_smiles"] = fn("parse_smiles", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		s, err := wantStr(args, 0, "parse_smiles")
		if err != nil {
			return nil, err
		}
		if s == "" {
			return nil, fmt.Errorf("parse_smiles(): empty SMILES string")
		}
		mol := minipy.NewObject("Molecule")
		mol.Attrs["smiles"] = minipy.Str(s)
		atoms := 0
		rings := 0
		for _, c := range s {
			switch {
			case c >= 'A' && c <= 'Z':
				atoms++
			case c >= '0' && c <= '9':
				rings++
			}
		}
		if atoms == 0 {
			return nil, fmt.Errorf("parse_smiles(): no atoms in %q", s)
		}
		mol.Attrs["atoms"] = minipy.Int(int64(atoms))
		mol.Attrs["rings"] = minipy.Int(int64(rings / 2))
		return mol, nil
	})
	m.Attrs["featurize"] = fn("featurize", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("featurize() takes 1 argument")
		}
		mol, ok := args[0].(*minipy.Object)
		if !ok || mol.Class != "Molecule" {
			return nil, fmt.Errorf("featurize() argument must be a Molecule")
		}
		smiles := string(mol.Attrs["smiles"].(minipy.Str))
		state := uint64(0)
		for _, c := range smiles {
			state = state*131 + uint64(c)
		}
		feats := &minipy.List{}
		for i := 0; i < 16; i++ {
			feats.Elems = append(feats.Elems, minipy.Float(float64(splitmix64(&state)%10000)/10000.0))
		}
		return feats, nil
	})
	return m
}

func buildQuantumsim() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "quantumsim", Attrs: map[string]minipy.Value{}}
	// pm7_energy runs an iterative SCF-like loop: deterministic but
	// genuinely iterative, so compute scales with the step count.
	m.Attrs["pm7_energy"] = fn("pm7_energy", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("pm7_energy() takes a molecule and optional step count")
		}
		mol, ok := args[0].(*minipy.Object)
		if !ok || mol.Class != "Molecule" {
			return nil, fmt.Errorf("pm7_energy() argument must be a Molecule")
		}
		steps := int64(500)
		if len(args) > 1 {
			n, err := wantInt(args, 1, "pm7_energy")
			if err != nil {
				return nil, err
			}
			steps = n
		}
		atoms := int64(mol.Attrs["atoms"].(minipy.Int))
		energy := -13.6 * float64(atoms)
		for i := int64(0); i < steps; i++ {
			energy += math.Sin(energy+float64(i)) * 0.01
		}
		return minipy.Float(energy), nil
	})
	m.Attrs["ionization_potential"] = fn("ionization_potential", func(ip *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		eNeutral, err := m.Attrs["pm7_energy"].(*minipy.Builtin).Fn(ip, args)
		if err != nil {
			return nil, err
		}
		mol := args[0].(*minipy.Object)
		atoms := float64(int64(mol.Attrs["atoms"].(minipy.Int)))
		rings := float64(int64(mol.Attrs["rings"].(minipy.Int)))
		e := float64(eNeutral.(minipy.Float))
		ipv := 5.0 + math.Abs(math.Mod(e, 7))/2 + rings*0.3 - atoms*0.01
		return minipy.Float(ipv), nil
	})
	return m
}

func buildMlpack() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "mlpack", Attrs: map[string]minipy.Value{}}
	// train builds a linear model by gradient descent over the feature
	// vectors; the returned model is a plain Object (picklable) so
	// trained surrogates can travel back to the manager.
	m.Attrs["train"] = fn("train", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		xs, err := wantList(args, 0, "train")
		if err != nil {
			return nil, err
		}
		ys, err := wantList(args, 1, "train")
		if err != nil {
			return nil, err
		}
		if len(xs.Elems) != len(ys.Elems) || len(xs.Elems) == 0 {
			return nil, fmt.Errorf("train(): need equal-length nonempty X and y")
		}
		iters := int64(50)
		if len(args) > 2 {
			if n, err := wantInt(args, 2, "train"); err == nil {
				iters = n
			}
		}
		dim := 0
		feats := make([][]float64, len(xs.Elems))
		targets := make([]float64, len(ys.Elems))
		for i, xv := range xs.Elems {
			row, ok := xv.(*minipy.List)
			if !ok {
				return nil, fmt.Errorf("train(): X rows must be lists")
			}
			feats[i] = make([]float64, len(row.Elems))
			for j, f := range row.Elems {
				v, err := wantFloat(row.Elems, j, "train")
				_ = f
				if err != nil {
					return nil, err
				}
				feats[i][j] = v
			}
			if dim == 0 {
				dim = len(feats[i])
			} else if len(feats[i]) != dim {
				return nil, fmt.Errorf("train(): inconsistent feature dimensions")
			}
		}
		for i := range targets {
			v, err := wantFloat(ys.Elems, i, "train")
			if err != nil {
				return nil, err
			}
			targets[i] = v
		}
		w := make([]float64, dim+1)
		lr := 0.05
		for it := int64(0); it < iters; it++ {
			for i, row := range feats {
				pred := w[dim]
				for j, x := range row {
					pred += w[j] * x
				}
				errv := pred - targets[i]
				for j, x := range row {
					w[j] -= lr * errv * x / float64(len(feats))
				}
				w[dim] -= lr * errv / float64(len(feats))
			}
		}
		model := minipy.NewObject("LinearModel")
		wl := &minipy.List{}
		for _, x := range w {
			wl.Elems = append(wl.Elems, minipy.Float(x))
		}
		model.Attrs["weights"] = wl
		model.Attrs["dim"] = minipy.Int(int64(dim))
		return model, nil
	})
	m.Attrs["predict"] = fn("predict", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("predict() takes a model and a feature list")
		}
		model, ok := args[0].(*minipy.Object)
		if !ok || model.Class != "LinearModel" {
			return nil, fmt.Errorf("predict() first argument must be a LinearModel")
		}
		xs, err := wantList(args, 1, "predict")
		if err != nil {
			return nil, err
		}
		wl := model.Attrs["weights"].(*minipy.List)
		dim := int(model.Attrs["dim"].(minipy.Int))
		out := &minipy.List{}
		for _, xv := range xs.Elems {
			row, ok := xv.(*minipy.List)
			if !ok {
				return nil, fmt.Errorf("predict(): X rows must be lists")
			}
			if len(row.Elems) != dim {
				return nil, fmt.Errorf("predict(): row has %d features, model wants %d", len(row.Elems), dim)
			}
			pred := float64(wl.Elems[dim].(minipy.Float))
			for j := range row.Elems {
				x, err := wantFloat(row.Elems, j, "predict")
				if err != nil {
					return nil, err
				}
				pred += float64(wl.Elems[j].(minipy.Float)) * x
			}
			out.Elems = append(out.Elems, minipy.Float(pred))
		}
		return out, nil
	})
	return m
}

func buildSurrogates() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "surrogates", Attrs: map[string]minipy.Value{}}
	m.Attrs["acquisition"] = fn("acquisition", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		// Upper-confidence-bound style score: prediction + exploration
		// bonus that shrinks with observations.
		pred, err := wantFloat(args, 0, "acquisition")
		if err != nil {
			return nil, err
		}
		nobs, err := wantInt(args, 1, "acquisition")
		if err != nil {
			return nil, err
		}
		if nobs < 0 {
			return nil, fmt.Errorf("acquisition(): negative observation count")
		}
		bonus := 1.0 / math.Sqrt(float64(nobs)+1)
		return minipy.Float(pred + bonus), nil
	})
	return m
}
