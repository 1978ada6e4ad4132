// Cluster telemetry, end to end: a mixed-class wave drains through the
// paper's testbed while the metrics registry self-scrapes into the same
// TSDB that stores container metrics. Afterwards the per-class
// submit→bind latency quantiles are read back through InfluxQL — the
// operator's view — beside the scheduler's counters, the lifecycle
// tracker's sample counts and the pass-trace ring. It exits non-zero when
// the wave does not drain or a class's quantiles are missing from the
// TSDB.
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

// The wave: best-effort fillers occupy the fleet first, then the
// latency-sensitive and batch jobs arrive on top of them.
const (
	fillers  = 24
	perClass = 12
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drains the wave and writes the walkthrough to w.
func run(w io.Writer) error {
	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{})
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Fprintf(w, "Mixed-class wave on the paper's testbed: %d best-effort fillers, then\n", fillers)
	fmt.Fprintf(w, "%d latency-sensitive (every fourth an enclave job) + %d batch jobs 30s\n", perClass, perClass)
	fmt.Fprintln(w, "later, self-scraped every 10s, queried back via InfluxQL")
	fmt.Fprintln(w)

	start := cluster.Now()
	for i := 0; i < fillers; i++ {
		if err := cluster.SubmitJob(sgxorch.JobSpec{
			Name:               fmt.Sprintf("best-effort-%02d", i),
			Class:              sgxorch.ClassBestEffort,
			Duration:           10 * time.Minute,
			MemoryRequestBytes: 8 * sgxorch.GiB,
		}); err != nil {
			return err
		}
	}
	cluster.AdvanceTime(30 * time.Second)
	for i := 0; i < perClass; i++ {
		ls := sgxorch.JobSpec{
			Name:               fmt.Sprintf("latency-sensitive-%02d", i),
			Class:              sgxorch.ClassLatencySensitive,
			Duration:           2 * time.Minute,
			MemoryRequestBytes: 4 * sgxorch.GiB,
		}
		if i%4 == 0 { // every fourth one an enclave job
			ls.MemoryRequestBytes, ls.EPCRequestBytes = 0, 16*sgxorch.MiB
		}
		batch := sgxorch.JobSpec{
			Name:               fmt.Sprintf("batch-%02d", i),
			Class:              sgxorch.ClassBatch,
			Duration:           2 * time.Minute,
			MemoryRequestBytes: 4 * sgxorch.GiB,
		}
		for _, job := range []sgxorch.JobSpec{ls, batch} {
			if err := cluster.SubmitJob(job); err != nil {
				return err
			}
		}
	}
	if !cluster.WaitAll(2 * time.Hour) {
		return errors.New("the wave did not drain within 2h")
	}
	drained := cluster.Now().Sub(start)
	// One more scrape interval, so the TSDB holds the drained end state.
	cluster.AdvanceTime(10 * time.Second)

	// The operator's read-back: each quantile series the self-scrape
	// wrote, per class, through InfluxQL.
	quantiles := map[string]map[string]float64{}
	for _, q := range []string{"0.5", "0.99"} {
		res, err := cluster.Query(`SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '` + q + `' GROUP BY class`)
		if err != nil {
			return err
		}
		quantiles[q] = res.ValueByTag("class")
	}
	fmt.Fprintf(w, "%-18s %-6s %-14s %s\n", "class", "jobs", "p50 sub→bind", "p99 sub→bind")
	for _, class := range []string{sgxorch.ClassLatencySensitive, sgxorch.ClassBatch, sgxorch.ClassBestEffort} {
		p50, ok50 := quantiles["0.5"][class]
		p99, ok99 := quantiles["0.99"][class]
		if !ok50 || !ok99 {
			return fmt.Errorf("the TSDB holds no submit→bind quantiles for class %s", class)
		}
		jobs := perClass
		if class == sgxorch.ClassBestEffort {
			jobs = fillers
		}
		fmt.Fprintf(w, "%-18s %-6d %-14s %s\n", class, jobs, fmt.Sprintf("%.1fs", p50), fmt.Sprintf("%.1fs", p99))
	}

	st := cluster.SchedulerStats()
	binds, runs := cluster.LifecycleStats()
	traces := cluster.PassTraces()
	detailed := 0
	for _, tr := range traces {
		if tr.Detailed {
			detailed++
		}
	}
	fmt.Fprintf(w, "\ndrained in %s\n", drained.Round(100*time.Millisecond))
	fmt.Fprintf(w, "scheduler: %d passes, %d bound, %d unschedulable, %d preemption(s), %d victim(s)\n",
		st.Passes, st.Bound, st.Unschedulable, st.Preemptions, st.Victims)
	fmt.Fprintf(w, "lifecycle: %d binds, %d runs observed\n", binds, runs)
	fmt.Fprintf(w, "pass traces: %d retained, %d detailed\n", len(traces), detailed)
	return nil
}
