// Preemption: fill both SGX nodes of the paper's testbed with
// low-priority enclave jobs, then submit a high-priority SGX job. The
// scheduler's priority tiers and preemption evict a minimal victim set so
// the urgent job binds within one scheduling pass instead of queueing for
// an hour; the victim re-queues and finishes later on its own.
package main

import (
	"errors"
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

// run plays the scenario and writes its walkthrough to w; it fails if a
// job cannot be submitted or read back, or the jobs do not finish.
func run(w io.Writer) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Policy: sgxorch.PolicyBinpack,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Four hour-long hogs: two per SGX node, together committing ~92% of
	// each node's EPC page items. Priority 0 — the default tier.
	for _, name := range []string{"hog-a", "hog-b", "hog-c", "hog-d"} {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:            name,
			Duration:        time.Hour,
			EPCRequestBytes: 43 * sgxorch.MiB,
		}); err != nil {
			return err
		}
	}
	cluster.AdvanceTime(15 * time.Second)
	fmt.Fprintln(w, "cluster warmed up: both SGX nodes committed to low-priority hogs")
	if err := printJobs(w, cluster, "hog-a", "hog-b", "hog-c", "hog-d"); err != nil {
		return err
	}

	// An urgent enclave job that cannot fit anywhere: without priorities
	// it would wait until a hog finishes.
	if err := cluster.SubmitJob(sgxorch.JobSpec{
		Name:            "urgent",
		Duration:        2 * time.Minute,
		EPCRequestBytes: 24 * sgxorch.MiB,
		Priority:        10,
	}); err != nil {
		return err
	}
	cluster.AdvanceTime(10 * time.Second) // one scheduling pass

	st, err := cluster.JobStatus("urgent")
	if err != nil {
		return err
	}
	stats := cluster.SchedulerStats()
	fmt.Fprintf(w, "\nurgent job after one pass: %s on %s (waited %v)\n",
		st.Phase, st.Node, st.Waiting.Round(time.Millisecond))
	fmt.Fprintf(w, "scheduler: %d preemption(s), %d victim(s) evicted and re-queued\n",
		stats.Preemptions, stats.Victims)
	if err := printJobs(w, cluster, "hog-a", "hog-b", "hog-c", "hog-d", "urgent"); err != nil {
		return err
	}

	// Let the urgent job finish; the victim reschedules onto the freed
	// node and completes its hour on its own.
	if !cluster.WaitAll(4 * time.Hour) {
		return errors.New("jobs did not finish")
	}
	fmt.Fprintln(w, "\nafter drain: every job finished — the victim rescheduled")
	return printJobs(w, cluster, "hog-a", "hog-b", "hog-c", "hog-d", "urgent")
}

func printJobs(w io.Writer, cluster *sgxorch.Cluster, names ...string) error {
	for _, name := range names {
		st, err := cluster.JobStatus(name)
		if err != nil {
			return err
		}
		node := st.Node
		if node == "" {
			node = "-"
		}
		fmt.Fprintf(w, "  %-8s phase %-9s node %-6s %s\n", st.Name, st.Phase, node, st.Reason)
	}
	return nil
}
