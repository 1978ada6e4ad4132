// Command borg-trace generates, inspects and exports the synthetic Google
// Borg trace of §VI-B.
//
// Usage:
//
//	borg-trace stats [-seed S]             print eval-slice statistics
//	borg-trace gen   [-seed S] [-o FILE]   write the eval slice as CSV
//	borg-trace day   [-seed S] [-jobs N]   full-day distribution summary
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "borg-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: borg-trace stats|gen|day [flags]")
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generator seed")

	switch cmd {
	case "stats":
		if err := fs.Parse(args); err != nil {
			return err
		}
		return printStats(borg.NewGenerator(*seed).EvalSlice())
	case "gen":
		out := fs.String("o", "-", "output file (- for stdout)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		tr := borg.NewGenerator(*seed).EvalSlice()
		if *out == "-" {
			return borg.WriteCSV(os.Stdout, tr)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := borg.WriteCSV(f, tr); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case "day":
		jobs := fs.Int("jobs", 20000, "jobs to materialise")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return printDay(borg.NewGenerator(*seed), *jobs)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func printStats(tr *borg.Trace) error {
	fmt.Printf("evaluation slice (§VI-B): window %v-%v sampled 1/%d\n",
		borg.EvalWindowStart, borg.EvalWindowEnd, borg.SampleInterval)
	fmt.Printf("jobs:            %d (paper: %d)\n", tr.Len(), borg.EvalJobCount)
	fmt.Printf("over-allocators: %d (paper: %d)\n", tr.OverAllocatorCount(), borg.EvalOverAllocators)
	fmt.Printf("total duration:  %v (the Fig. 10 'Trace' bar)\n", tr.TotalDuration().Round(time.Minute))

	durs := stats.NewCDF(tr.DurationsSeconds())
	q50, _ := durs.Quantile(0.5)
	qmax, _ := durs.Quantile(1)
	fmt.Printf("durations:       median %.0fs, max %.0fs (paper: all <= 300s)\n", q50, qmax)

	fr := stats.NewCDF(tr.MemFractions())
	f50, _ := fr.Quantile(0.5)
	fmax, _ := fr.Quantile(1)
	fmt.Printf("memory fraction: median %.3f, max %.3f\n", f50, fmax)
	fmt.Printf("SGX demand:      median %.1f MiB, max %.1f MiB (x 93.5 MiB, §VI-B)\n",
		f50*93.5, fmax*93.5)
	fmt.Printf("std demand:      median %.2f GiB, max %.2f GiB (x 32 GiB, §VI-B)\n",
		f50*32, fmax*32)
	return nil
}

func printDay(g *borg.Generator, jobs int) error {
	tr := g.FullDay(jobs)
	fr := stats.NewCDF(tr.MemFractions())
	durs := stats.NewCDF(tr.DurationsSeconds())
	fmt.Printf("full-day synthetic trace: %d jobs over 24h\n", tr.Len())
	fmt.Println("\nFig. 3 anchors (max memory usage CDF):")
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
		fmt.Printf("  CDF(%.2f) = %5.1f%%\n", x, 100*fr.At(x))
	}
	fmt.Println("\nFig. 4 anchors (duration CDF):")
	for _, x := range []float64{50, 100, 150, 200, 300} {
		fmt.Printf("  CDF(%3.0fs) = %5.1f%%\n", x, 100*durs.At(x))
	}
	prof := g.ConcurrencyProfile(time.Hour)
	fmt.Println("\nFig. 5 (concurrent jobs, hourly):")
	for _, p := range prof {
		fmt.Printf("  t=%5.1fh  %6.0f jobs\n", p.Offset.Hours(), p.Jobs)
	}
	return nil
}
