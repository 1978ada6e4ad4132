// Command benchreport regenerates every figure of the paper's evaluation
// (Figs. 3-11) and renders the series and paper-vs-measured notes (a
// committed, pinned table of them is ROADMAP.md item 9). It doubles as the
// perf-artifact emitter: given -bench-input, it parses raw `go test -bench`
// output and writes a machine-readable JSON report (ns/op, B/op, allocs/op
// and custom metrics like binds/s per benchmark) — the BENCH_<n>.json
// artifact the CI bench job uploads so the repo keeps a perf trajectory.
//
// Figure mode accepts -cpuprofile/-memprofile to capture pprof profiles
// of the reproduction run itself — the quickest way to see where a
// figure's simulated cluster spends its time without wiring a benchmark
// around it (see README.md, "Profiling").
//
// Usage:
//
//	benchreport [-seed 1] [-figs fig3,fig7,...] [-rows 24] [-cpuprofile cpu.out] [-memprofile mem.out]
//	benchreport -bench-input bench-head.txt [-json-out BENCH_5.json] [-commit SHA]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/benchgate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "experiment seed")
	figs := flag.String("figs", "", "comma-separated figure ids (default: all)")
	rows := flag.Int("rows", 24, "max rows rendered per series")
	benchInput := flag.String("bench-input", "", "raw `go test -bench` output to convert to JSON (skips figure mode)")
	jsonOut := flag.String("json-out", "", "JSON report destination (default: stdout)")
	commit := flag.String("commit", "", "VCS revision to stamp into the JSON report")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the figure runs to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the figure runs to `file`")
	flag.Parse()

	if *benchInput != "" {
		return emitBenchJSON(*benchInput, *jsonOut, *commit)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	ids := sgxorch.FigureIDs()
	if *figs != "" {
		ids = strings.Split(*figs, ",")
	}
	fmt.Printf("# SGX-aware orchestration — evaluation report (seed %d)\n", *seed)
	fmt.Printf("# generated %s\n\n", time.Now().UTC().Format(time.RFC3339))
	for _, id := range ids {
		start := time.Now()
		fig, err := sgxorch.ReproduceFigure(strings.TrimSpace(id), *seed)
		if err != nil {
			return err
		}
		if err := fig.Render(os.Stdout, *rows); err != nil {
			return err
		}
		fmt.Printf("   (regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// emitBenchJSON converts raw benchmark output into the JSON perf
// artifact.
func emitBenchJSON(inputPath, outPath, commit string) error {
	in, err := os.Open(inputPath)
	if err != nil {
		return err
	}
	defer in.Close()
	rep, err := benchgate.ParseBench(in)
	if err != nil {
		return err
	}
	rep.Source = inputPath
	rep.Commit = commit
	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Printf("benchreport: wrote %d benchmarks to %s\n", len(rep.Benchmarks), outPath)
	}
	return nil
}
