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
	"io"
	"os"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// usage is the package doc's synopsis, printed by -h, -help and help.
const usage = `usage:
  borg-trace stats [-seed S]             print eval-slice statistics
  borg-trace gen   [-seed S] [-o FILE]   write the eval slice as CSV
  borg-trace day   [-seed S] [-jobs N]   full-day distribution summary`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "borg-trace:", err)
		os.Exit(1)
	}
}

// run executes one subcommand, writing what it prints to stdout.
func run(argv []string, stdout io.Writer) error {
	if len(argv) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}
	cmd, args := argv[0], argv[1:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generator seed")

	switch cmd {
	case "stats":
		if err := fs.Parse(args); err != nil {
			return err
		}
		return printStats(stdout, borg.NewGenerator(*seed).EvalSlice())
	case "gen":
		out := fs.String("o", "-", "output file (- for stdout)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		tr := borg.NewGenerator(*seed).EvalSlice()
		if *out == "-" {
			return borg.WriteCSV(stdout, tr)
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
		return printDay(stdout, borg.NewGenerator(*seed), *jobs)
	case "-h", "-help", "--help", "help":
		_, err := fmt.Fprintln(stdout, usage)
		return err
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
}

func printStats(w io.Writer, tr *borg.Trace) error {
	fmt.Fprintf(w, "evaluation slice (§VI-B): window %v-%v sampled 1/%d\n",
		borg.EvalWindowStart, borg.EvalWindowEnd, borg.SampleInterval)
	fmt.Fprintf(w, "jobs:            %d (paper: %d)\n", tr.Len(), borg.EvalJobCount)
	fmt.Fprintf(w, "over-allocators: %d (paper: %d)\n", tr.OverAllocatorCount(), borg.EvalOverAllocators)
	fmt.Fprintf(w, "total duration:  %v (the Fig. 10 'Trace' bar)\n", tr.TotalDuration().Round(time.Minute))

	durs := stats.NewCDF(tr.DurationsSeconds())
	q50, _ := durs.Quantile(0.5)
	qmax, _ := durs.Quantile(1)
	fmt.Fprintf(w, "durations:       median %.0fs, max %.0fs (paper: all <= 300s)\n", q50, qmax)

	fr := stats.NewCDF(tr.MemFractions())
	f50, _ := fr.Quantile(0.5)
	fmax, _ := fr.Quantile(1)
	fmt.Fprintf(w, "memory fraction: median %.3f, max %.3f\n", f50, fmax)
	// MiB and GiB are powers of two, so these quotients are exact: 93.5
	// and 32.
	sgxMiB := float64(borg.SGXMemoryScale) / float64(resource.MiB)
	stdGiB := float64(borg.StandardMemoryScale) / float64(resource.GiB)
	fmt.Fprintf(w, "SGX demand:      median %.1f MiB, max %.1f MiB (x %g MiB, §VI-B)\n",
		f50*sgxMiB, fmax*sgxMiB, sgxMiB)
	fmt.Fprintf(w, "std demand:      median %.2f GiB, max %.2f GiB (x %g GiB, §VI-B)\n",
		f50*stdGiB, fmax*stdGiB, stdGiB)
	return nil
}

func printDay(w io.Writer, g *borg.Generator, jobs int) error {
	tr := g.FullDay(jobs)
	fr := stats.NewCDF(tr.MemFractions())
	durs := stats.NewCDF(tr.DurationsSeconds())
	fmt.Fprintf(w, "full-day synthetic trace: %d jobs over 24h\n", tr.Len())
	fmt.Fprintln(w, "\nFig. 3 anchors (max memory usage CDF):")
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
		fmt.Fprintf(w, "  CDF(%.2f) = %5.1f%%\n", x, 100*fr.At(x))
	}
	fmt.Fprintln(w, "\nFig. 4 anchors (duration CDF):")
	for _, x := range []float64{50, 100, 150, 200, 300} {
		fmt.Fprintf(w, "  CDF(%3.0fs) = %5.1f%%\n", x, 100*durs.At(x))
	}
	prof := g.ConcurrencyProfile(time.Hour)
	fmt.Fprintln(w, "\nFig. 5 (concurrent jobs, hourly):")
	for _, p := range prof {
		fmt.Fprintf(w, "  t=%5.1fh  %6.0f jobs\n", p.Offset.Hours(), p.Jobs)
	}
	return nil
}
