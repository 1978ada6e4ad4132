// Quickstart: build the paper's 5-machine heterogeneous cluster, submit
// an SGX-enabled job and a standard job, and watch the SGX-aware
// scheduler place each on the right hardware.
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

// run places and completes the two jobs and writes where each ran to w.
func run(w io.Writer) error {
	// The default cluster is the paper's testbed (§VI-A): one master,
	// two 64 GiB standard nodes, two SGX nodes with 128 MiB EPC.
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Policy: sgxorch.PolicyBinpack,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// An SGX job: requests 10 MiB of Enclave Page Cache. It can only run
	// on SGX nodes, and the device plugin accounts every 4 KiB page.
	if err := cluster.SubmitJob(sgxorch.JobSpec{
		Name:            "confidential-service",
		Duration:        2 * time.Minute,
		EPCRequestBytes: 10 * sgxorch.MiB,
	}); err != nil {
		return err
	}

	// A standard job: the scheduler keeps it off the scarce SGX nodes as
	// long as a standard node fits it.
	if err := cluster.SubmitJob(sgxorch.JobSpec{
		Name:               "batch-analytics",
		Duration:           90 * time.Second,
		MemoryRequestBytes: 4 * sgxorch.GiB,
	}); err != nil {
		return err
	}

	// Time is simulated: hours of cluster time run in milliseconds.
	if !cluster.WaitAll(time.Hour) {
		return errors.New("jobs did not finish")
	}

	for _, name := range []string{"confidential-service", "batch-analytics"} {
		st, err := cluster.JobStatus(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s -> node %-6s phase %-9s waited %-8v turnaround %v\n",
			st.Name, st.Node, st.Phase, st.Waiting.Round(time.Millisecond),
			st.Turnaround.Round(time.Millisecond))
	}

	fmt.Fprintln(w, "\ncluster state after completion:")
	for _, n := range cluster.Nodes() {
		kind := "standard"
		if n.SGX {
			kind = fmt.Sprintf("SGX (%d EPC pages)", n.EPCPages)
		}
		if n.Unschedulable {
			kind += ", master"
		}
		fmt.Fprintf(w, "  %-8s %s\n", n.Name, kind)
	}
	return nil
}
