// Malicious tenant: the §VI-F experiment behind Fig. 11. A container
// declares a single EPC page but actually allocates half of the node's
// enclave memory. Without driver-level limit enforcement the usage-aware
// scheduler sees the stolen EPC and throttles honest admissions; with the
// paper's modified driver the cheater is killed at enclave initialization
// and service is restored.
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

// run plays both scenarios and writes their outcomes to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "scenario 1: limits DISABLED (upstream driver)")
	if err := runScenario(w, true); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nscenario 2: limits ENFORCED (the paper's modified driver, §V-D)")
	return runScenario(w, false)
}

func runScenario(w io.Writer, disableEnforcement bool) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		DisableEnforcement: disableEnforcement,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// The malicious container: advertises 4 KiB (one page), allocates
	// ~46 MiB — half the usable EPC of its node.
	if err := cluster.SubmitJob(sgxorch.JobSpec{
		Name:            "malicious",
		Duration:        10 * time.Hour,
		EPCRequestBytes: 4 * sgxorch.KiB,
		EPCUsageBytes:   46 * sgxorch.MiB,
	}); err != nil {
		return err
	}
	// Give the cheater time to start and the probes time to expose its
	// real footprint (the 25 s sliding window of Listing 1).
	cluster.AdvanceTime(40 * time.Second)

	// Two honest jobs that each need 60 MiB of EPC: together with the
	// stolen 46 MiB only one node's worth of EPC remains per job.
	for _, name := range []string{"honest-1", "honest-2"} {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:            name,
			Duration:        time.Minute,
			EPCRequestBytes: 60 * sgxorch.MiB,
		}); err != nil {
			return err
		}
	}
	cluster.AdvanceTime(5 * time.Minute)

	mal, err := cluster.JobStatus("malicious")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  malicious: phase %-9s reason %q\n", mal.Phase, mal.Reason)
	for _, name := range []string{"honest-1", "honest-2"} {
		st, err := cluster.JobStatus(name)
		if err != nil {
			return err
		}
		wait := "still pending"
		if st.Started {
			wait = fmt.Sprintf("waited %v", st.Waiting.Round(time.Second))
		}
		fmt.Fprintf(w, "  %-9s: phase %-9s node %-6s %s\n", st.Name, st.Phase, st.Node, wait)
	}
	stats := cluster.SchedulerStats()
	fmt.Fprintf(w, "  scheduler: %d unschedulable attempts\n", stats.Unschedulable)
	return nil
}
