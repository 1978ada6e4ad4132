// Command benchreport regenerates every figure of the paper's evaluation
// (Figs. 3-11) and renders the series and paper-vs-measured notes (a
// committed, pinned table of them is ROADMAP.md item 9).
//
// With -compare REV it measures the working tree against REV on the
// whole-stack benchmark instead (bench/run.sh, judged by BENCHMARK.json's
// bounds over ten alternating pairs; see README.md, "Measuring a change").
//
// Figure mode accepts -cpuprofile/-memprofile to capture pprof profiles
// of the reproduction run itself — the quickest way to see where a
// figure's simulated cluster spends its time without wiring a benchmark
// around it (see README.md, "Profiling").
//
// Usage:
//
//	benchreport [-seed 1] [-figs fig3,fig7,...] [-rows 24] [-cpuprofile cpu.out] [-memprofile mem.out]
//	benchreport -compare REV
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	seed := flag.Int64("seed", 1, "experiment seed")
	figs := flag.String("figs", "", "comma-separated figure ids (default: all)")
	rows := flag.Int("rows", 24, "max rows rendered per series")
	compareRev := flag.String("compare", "", "compare the working tree with `rev` on the whole-stack benchmark (skips figure mode)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the figure runs to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the figure runs to `file`")
	flag.Parse()

	if *compareRev != "" {
		return compare(*compareRev, os.Stdout)
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
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
		runtime.GC() // settle the heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
