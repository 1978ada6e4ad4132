// EPC sizing: the §VI-D / Fig. 7 capacity-planning question — how would
// bigger (SGX 2) or smaller protected-memory sizes change the cluster's
// ability to drain an SGX workload? The replay sweeps simulated EPC sizes
// and reports queue peaks and drain times.
//
// Paper anchors: 32 MiB drains after 4h47m, 64 MiB after 2h47m, 128 MiB
// after 1h22m, and 256 MiB shows "the total absence of contention",
// finishing with the 1-hour trace.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run replays the all-SGX trace at each EPC size and writes the sweep to w.
func run(w io.Writer) error {
	trace := sgxorch.GenerateBorgEvalSlice(1)
	fmt.Fprintln(w, "replaying 663 SGX jobs for each simulated EPC size (binpack):")
	for _, sizeMiB := range []int64{32, 64, 128, 256} {
		res, err := sgxorch.ReplayBorgTrace(sgxorch.ReplayOptions{
			Trace:    trace,
			Seed:     1,
			SGXRatio: 1,
			EPCSize:  sizeMiB * sgxorch.MiB,
		})
		if err != nil {
			return err
		}
		var peak int64
		for _, pt := range res.PendingSeries {
			if pt.RequestedEPCBytes > peak {
				peak = pt.RequestedEPCBytes
			}
		}
		waits := res.WaitingSeconds(nil)
		var mean float64
		for _, s := range waits {
			mean += s
		}
		if len(waits) > 0 {
			mean /= float64(len(waits))
		}
		fmt.Fprintf(w, "  EPC %3d MiB: makespan %-9v queue peak %4.0f MiB  mean wait %6.1fs\n",
			sizeMiB, res.Makespan.Round(time.Minute),
			float64(peak)/float64(sgxorch.MiB), mean)
	}
	fmt.Fprintln(w, "\ndoubling the EPC roughly halves the drain time until contention")
	fmt.Fprintln(w, "vanishes — the paper's case for SGX 2's larger enclave memory.")
	return nil
}
