// SGX 2 burst: the §VI-G forward-looking scenario. On SGX 2 hardware,
// enclaves allocate EPC dynamically, so a job can reserve only its
// steady-state baseline and burst to its peak mid-run. The usage-aware
// scheduler packs by live measurements, converting the freed baseline
// into admission headroom — the same jobs that serialise on SGX 1 run
// concurrently on SGX 2.
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

// run drains the three jobs on an SGX 1 node, then on an SGX 2 node, and
// writes each job's waiting time to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "three jobs, each peaking at 60 MiB of EPC on one 93.5 MiB node")

	fmt.Fprintln(w, "\nSGX 1 (static commitment — jobs must reserve their peak):")
	if err := runStatic(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSGX 2 (dynamic allocation — jobs reserve a 20 MiB baseline):")
	return runDynamic(w)
}

func runStatic(w io.Writer) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Nodes: []sgxorch.NodeSpec{{Name: "sgx-1", RAMBytes: 8 * sgxorch.GiB, CPUMillis: 8000, SGX: true}},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	for i := 0; i < 3; i++ {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:            fmt.Sprintf("job-%d", i),
			Duration:        3 * time.Minute,
			EPCRequestBytes: 60 * sgxorch.MiB, // must reserve the peak
		}); err != nil {
			return err
		}
	}
	return report(w, cluster)
}

func runDynamic(w io.Writer) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Nodes: []sgxorch.NodeSpec{{Name: "sgx-1", RAMBytes: 8 * sgxorch.GiB, CPUMillis: 8000, SGX2: true}},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	for i := 0; i < 3; i++ {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:            fmt.Sprintf("job-%d", i),
			Duration:        3 * time.Minute,
			EPCRequestBytes: 20 * sgxorch.MiB, // steady-state baseline
			EPCUsageBytes:   60 * sgxorch.MiB, // burst peak (driver-limited)
			DynamicEPC:      true,
		}); err != nil {
			return err
		}
	}
	return report(w, cluster)
}

func report(w io.Writer, cluster *sgxorch.Cluster) error {
	if !cluster.WaitAll(6 * time.Hour) {
		return errors.New("jobs did not finish")
	}
	for i := 0; i < 3; i++ {
		st, err := cluster.JobStatus(fmt.Sprintf("job-%d", i))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s: %-9s waited %v\n", st.Name, st.Phase, st.Waiting.Round(time.Second))
	}
	return nil
}
