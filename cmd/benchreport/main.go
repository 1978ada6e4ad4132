// Command benchreport regenerates every figure of the paper's evaluation
// (Figs. 3-11) and renders the series and paper-vs-measured notes (a
// committed, pinned table of them is ROADMAP.md item 9).
//
// With -compare REV it measures the working tree against REV on the
// whole-stack benchmark instead (bench/run.sh, judged by BENCHMARK.json's
// bounds over ten alternating pairs; see README.md, "Measuring a change").
// It always runs seeds 1-10, so it refuses every figure-mode flag.
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("benchreport", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	figs := fs.String("figs", "", "comma-separated figure ids (default: all)")
	rows := fs.Int("rows", 24, "max rows rendered per series")
	compareRev := fs.String("compare", "", "compare the working tree with `rev` on the whole-stack benchmark (skips figure mode)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the figure runs to `file`")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile after the figure runs to `file`")
	fs.Parse(args)

	if *compareRev != "" {
		// The comparison always runs seeds 1-10 and renders no figure, so
		// a figure-mode flag beside it would be silently ignored.
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "compare" && err == nil {
				err = fmt.Errorf("-%s does not apply with -compare", f.Name)
			}
		})
		if err != nil {
			return err
		}
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
