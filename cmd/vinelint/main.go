// Command vinelint runs the repo's custom analyzer suite
// (internal/lint) over the given package patterns — the multichecker
// driver behind `make lint`.
//
// Usage:
//
//	go run ./cmd/vinelint ./...
//	go run ./cmd/vinelint -json ./...
//	go run ./cmd/vinelint ./internal/lint/testdata/src/policypurity_bad/...
//
// Exit status: 0 when every analyzer is clean, 1 when findings or
// pragma errors remain, 2 when packages fail to load. Findings carry
// file:line:col positions; suppressions via //vinelint: pragmas are
// counted and reported so they stay visible. With -json each finding
// is one JSON object per line ({file, line, col, analyzer, message,
// severity}) and the summary is suppressed, so CI can turn the stream
// into per-line annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	return runTo(args, os.Stdout, os.Stderr)
}

// finding is the JSON shape of one diagnostic, one object per line.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

func runTo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vinelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "print findings only, no summary line")
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding, no summary line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleDir, modulePath, err := findModule()
	if err != nil {
		fmt.Fprintf(stderr, "vinelint: %v\n", err)
		return 2
	}
	dirs, err := lint.ExpandPatterns(moduleDir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "vinelint: %v\n", err)
		return 2
	}
	loader := lint.NewLoader(modulePath, moduleDir)
	prog, err := loader.Load(dirs...)
	if err != nil {
		fmt.Fprintf(stderr, "vinelint: %v\n", err)
		return 2
	}

	res := lint.RunAnalyzers(prog, lint.All())
	all := append(append([]lint.Diagnostic{}, res.Diagnostics...), res.PragmaErrors...)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range all {
			if err := enc.Encode(finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Severity: d.Severity,
			}); err != nil {
				fmt.Fprintf(stderr, "vinelint: %v\n", err)
				return 2
			}
		}
	} else {
		for _, d := range all {
			fmt.Fprintln(stdout, d)
		}
		if !*quiet {
			fmt.Fprintf(stdout, "vinelint: %d packages, %d findings, %d suppressed by pragma, %d pragma errors\n",
				len(prog.Target), len(res.Diagnostics), res.Suppressed, len(res.PragmaErrors))
		}
	}
	if !res.Clean() {
		return 1
	}
	return 0
}

// findModule walks up from the working directory to the enclosing
// go.mod and reads the module path from its first line.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			var p string
			if _, err := fmt.Sscanf(string(data), "module %s", &p); err != nil {
				return "", "", fmt.Errorf("cannot parse module path from %s/go.mod", dir)
			}
			return dir, p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
