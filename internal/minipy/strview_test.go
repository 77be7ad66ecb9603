package minipy

import (
	goparser "go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestUnsafeHasOneHome: strview.go is the only file of the module that
// imports unsafe, tests included, so every view of object bytes as a
// string — the aliasing contract of DESIGN.md §13 — is built in one
// place a reader can audit. (bench/ is a module of its own.)
func TestUnsafeHasOneHome(t *testing.T) {
	const root, home = "../..", "internal/minipy/strview.go"
	var importers []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a nested module
			}
			if d.Name() == "testdata" || (d.Name() != ".." && d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := goparser.ParseFile(token.NewFileSet(), path, nil, goparser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				rel, _ := filepath.Rel(root, path)
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) != 1 || importers[0] != home {
		t.Errorf("files importing unsafe: %v, want only %s", importers, home)
	}
}
