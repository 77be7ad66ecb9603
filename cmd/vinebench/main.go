// Command vinebench regenerates the paper's tables and figures.
//
// Usage:
//
//	vinebench -exp fig6a            # one experiment at paper scale
//	vinebench -exp all -scale 10    # everything at 1/10 workload
//	vinebench -list                 # available experiment names
//
// Each experiment prints the same rows or series the paper reports,
// with the published values alongside for comparison. (The engine's
// own speed is measured by the repository benchmark, bench/.)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	scale := flag.Int("scale", 1, "divide workload size by this factor")
	seed := flag.Uint64("seed", 0, "simulation seed (0 = default)")
	list := flag.Bool("list", false, "list experiment names and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vinebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vinebench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vinebench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "vinebench: %v\n", err)
			}
		}()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed}
	if *exp == "all" {
		start := time.Now()
		for _, name := range experiments.Names() {
			runOne(name, opts)
		}
		fmt.Printf("all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	runOne(*exp, opts)
}

func runOne(name string, opts experiments.Options) {
	f, ok := experiments.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "vinebench: unknown experiment %q (use -list)\n", name)
		os.Exit(2)
	}
	start := time.Now()
	rep := f(opts)
	fmt.Println(rep)
	fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
}
