// Custom topology: build a non-default cluster (an edge site with one big
// standard box and three small SGX nodes of different EPC sizes), use the
// spread policy, and watch enclave jobs balance across the SGX nodes
// while standard work stays off them.
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

// run places the jobs on the edge site and writes the placements and the
// EPC page usage per SGX node to w.
func run(w io.Writer) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Policy: sgxorch.PolicySpread,
		Nodes: []sgxorch.NodeSpec{
			{Name: "big-std", RAMBytes: 128 * sgxorch.GiB, CPUMillis: 16000},
			{Name: "edge-a", RAMBytes: 4 * sgxorch.GiB, CPUMillis: 4000, SGX: true, EPCSize: 128 * sgxorch.MiB},
			{Name: "edge-b", RAMBytes: 4 * sgxorch.GiB, CPUMillis: 4000, SGX: true, EPCSize: 128 * sgxorch.MiB},
			{Name: "edge-c", RAMBytes: 4 * sgxorch.GiB, CPUMillis: 4000, SGX: true, EPCSize: 64 * sgxorch.MiB},
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Six enclave services; spread should balance EPC load.
	for i := 0; i < 6; i++ {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:            fmt.Sprintf("enclave-%d", i),
			Duration:        30 * time.Minute,
			EPCRequestBytes: 12 * sgxorch.MiB,
		}); err != nil {
			return err
		}
	}
	// One standard job: must land on big-std even though the SGX nodes
	// have RAM to spare.
	if err := cluster.SubmitJob(sgxorch.JobSpec{
		Name:               "web-frontend",
		Duration:           30 * time.Minute,
		MemoryRequestBytes: 2 * sgxorch.GiB,
	}); err != nil {
		return err
	}

	cluster.AdvanceTime(time.Minute)

	placements := map[string]int{}
	for i := 0; i < 6; i++ {
		st, err := cluster.JobStatus(fmt.Sprintf("enclave-%d", i))
		if err != nil {
			return err
		}
		placements[st.Node]++
		fmt.Fprintf(w, "enclave-%d -> %s\n", i, st.Node)
	}
	web, err := cluster.JobStatus("web-frontend")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "web-frontend -> %s\n\n", web.Node)

	fmt.Fprintln(w, "EPC page usage per node:")
	for _, n := range cluster.Nodes() {
		if !n.SGX {
			continue
		}
		fmt.Fprintf(w, "  %-7s %5d / %5d pages in use (%d pods)\n",
			n.Name, n.EPCPages-n.EPCPagesFree, n.EPCPages, placements[n.Name])
	}
	return nil
}
