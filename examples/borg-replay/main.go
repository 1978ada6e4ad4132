// Borg replay: run the paper's §VI-B evaluation — the Google Borg trace
// slice (663 jobs over one hour, 44 of them over-allocating) — on the
// simulated testbed with a 50/50 SGX split, and report the §VI-E
// waiting-time distribution for both job classes.
//
// This is the scenario behind Figs. 8-10: a cloud provider asking how
// much SGX jobs interfere with standard ones under a given placement
// policy.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run replays the slice under binpack and spread and writes each policy's
// waiting-time distribution to w.
func run(w io.Writer) error {
	for _, policy := range []sgxorch.Policy{sgxorch.PolicyBinpack, sgxorch.PolicySpread} {
		res, err := sgxorch.ReplayBorgTrace(sgxorch.ReplayOptions{
			Seed:     1,
			SGXRatio: 0.5,
			Policy:   policy,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "policy %-8s makespan %-10v failed %d/663\n",
			policy, res.Makespan.Round(time.Second), res.Failed)
		for _, sgxJobs := range []bool{true, false} {
			kind := "standard"
			if sgxJobs {
				kind = "SGX"
			}
			waits := res.WaitingSeconds(&sgxJobs)
			sort.Float64s(waits)
			if len(waits) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-8s jobs=%3d  wait p50=%6.1fs  p90=%6.1fs  max=%6.1fs\n",
				kind, len(waits), waits[len(waits)/2], waits[len(waits)*9/10], waits[len(waits)-1])
		}
		fmt.Fprintf(w, "  total turnaround %v (Fig. 10 metric)\n\n",
			res.TotalTurnaround().Round(time.Minute))
	}
	fmt.Fprintln(w, "expected shape (paper §VI-E): binpack beats spread; a 50% SGX mix")
	fmt.Fprintln(w, "stays close to the all-standard waiting-time profile.")
	return nil
}
