// Command trace-replay replays the §VI-B Borg trace slice through the
// full orchestrator stack on the paper's simulated testbed and prints the
// §VI-E waiting-time and turnaround summary.
//
// Usage:
//
//	trace-replay [-sgx-ratio 0.5] [-policy binpack] [-epc-mib 128]
//	             [-enforce=true] [-metrics=true] [-seed 1]
//	             [-malicious 0] [-malicious-frac 0.5]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace-replay:", err)
		os.Exit(1)
	}
}

// run parses args, replays the slice and writes the summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace-replay", flag.ContinueOnError)
	sgxRatio := fs.Float64("sgx-ratio", 0.5, "fraction of SGX-enabled jobs (0..1)")
	policy := fs.String("policy", "binpack", "binpack, spread or least-requested")
	epcMiB := fs.Int64("epc-mib", 128, "EPC size of SGX machines in MiB")
	enforce := fs.Bool("enforce", true, "driver-level EPC limit enforcement (§V-D)")
	metrics := fs.Bool("metrics", true, "usage-aware scheduling")
	seed := fs.Int64("seed", 1, "trace and designation seed")
	malicious := fs.Int("malicious", 0, "malicious containers per SGX node (Fig. 11)")
	maliciousFrac := fs.Float64("malicious-frac", 0.5, "EPC fraction each malicious container allocates")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "replaying 663-job slice: %s policy, %.0f%% SGX, EPC %d MiB, enforcement %v\n\n",
		*policy, *sgxRatio*100, *epcMiB, *enforce)
	res, err := sgxorch.ReplayBorgTrace(sgxorch.ReplayOptions{
		Seed:                 *seed,
		SGXRatio:             *sgxRatio,
		Policy:               sgxorch.Policy(*policy),
		EPCSize:              *epcMiB * sgxorch.MiB,
		DisableMetrics:       !*metrics,
		DisableEnforcement:   !*enforce,
		MaliciousPerSGXNode:  *malicious,
		MaliciousEPCFraction: *maliciousFrac,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed: %v   makespan: %v   failed jobs: %d\n",
		res.Completed, res.Makespan.Round(time.Second), res.Failed)

	for _, kind := range []string{"all", "sgx", "standard"} {
		var filter *bool
		switch kind {
		case "sgx":
			v := true
			filter = &v
		case "standard":
			v := false
			filter = &v
		}
		waits := res.WaitingSeconds(filter)
		if len(waits) == 0 {
			continue
		}
		sort.Float64s(waits)
		fmt.Fprintf(stdout, "%-8s jobs=%4d  wait p50=%7.1fs  p90=%7.1fs  p99=%7.1fs  max=%7.1fs\n",
			kind, len(waits), waits[len(waits)/2], waits[len(waits)*9/10],
			waits[len(waits)*99/100], waits[len(waits)-1])
	}
	fmt.Fprintf(stdout, "\ntotal turnaround: %v (the Fig. 10 metric)\n",
		res.TotalTurnaround().Round(time.Minute))

	// Pending-queue peak (the Fig. 7 metric).
	var peak int64
	var peakAt time.Duration
	for _, pt := range res.PendingSeries {
		if pt.RequestedEPCBytes > peak {
			peak, peakAt = pt.RequestedEPCBytes, pt.Offset
		}
	}
	fmt.Fprintf(stdout, "pending EPC queue peak: %.0f MiB at t=%v\n",
		float64(peak)/float64(sgxorch.MiB), peakAt.Round(time.Second))
	return nil
}
