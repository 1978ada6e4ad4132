// Command sgx-scheduler runs the SGX-aware scheduler (§IV, §V-B) against
// a simulated heterogeneous cluster and prints placement decisions and
// queue statistics.
//
// Usage:
//
//	sgx-scheduler [-policy binpack|spread|least-requested] [-jobs N]
//	              [-sgx-ratio R] [-seed S] [-metrics=true]
//
// The cluster is the paper's §VI-A testbed (one master, two 64 GiB
// standard nodes, two SGX nodes with 128 MiB EPC). The jobs are the first
// N of the §VI-B evaluation slice, scaled as the trace replay scales them
// (experiments.TraceJob): an SGX job asks for its EPC beside 16 MiB of
// ordinary memory. Each job arrives at its trace offset (the slice spans
// one simulated hour, so the first N arrive over its first N/663); the
// tool reports per-job placements and the §VI-E waiting-time summary,
// a job's wait counted from its arrival. -sgx-ratio R in
// [0, 1] makes ⌈n·R⌉ of the first n jobs SGX jobs, spread evenly: R = 1/k
// designates job-000, job-k, ….
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	sgxorch "github.com/sgxorch/sgxorch"
	"github.com/sgxorch/sgxorch/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-scheduler:", err)
		os.Exit(1)
	}
}

// sgxJobsAmong returns how many of the first n jobs are SGX jobs at ratio
// r: ⌈n·r⌉, read with a tolerance, because the product of a decimal ratio
// is inexact (30 × 0.1 is 3.0000000000000004).
func sgxJobsAmong(n int, r float64) int {
	return int(math.Ceil(float64(n)*r - 1e-9))
}

// isSGXJob reports whether job i is an SGX job at ratio r: it is when the
// first i+1 jobs hold one more SGX job than the first i.
func isSGXJob(i int, r float64) bool {
	return sgxJobsAmong(i+1, r) > sgxJobsAmong(i, r)
}

// run parses args, runs the jobs and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgx-scheduler", flag.ContinueOnError)
	policy := fs.String("policy", "binpack", "placement policy: binpack, spread or least-requested")
	jobs := fs.Int("jobs", 40, "number of jobs to submit")
	sgxRatio := fs.Float64("sgx-ratio", 0.5, "fraction of SGX-enabled jobs, in [0, 1]")
	seed := fs.Int64("seed", 1, "random seed")
	metrics := fs.Bool("metrics", true, "usage-aware scheduling (false = request-only baseline)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs %d: want a count >= 0", *jobs)
	}
	if !(*sgxRatio >= 0 && *sgxRatio <= 1) {
		return fmt.Errorf("-sgx-ratio %v: want a fraction in [0, 1]", *sgxRatio)
	}

	cluster, err := sgxorch.NewCluster(sgxorch.ClusterConfig{
		Policy:         sgxorch.Policy(*policy),
		DisableMetrics: !*metrics,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	trace := sgxorch.GenerateBorgEvalSlice(*seed)
	n := *jobs
	if n > trace.Len() {
		n = trace.Len()
	}
	fmt.Fprintf(stdout, "submitting %d jobs (%d SGX) under %s, each at its trace offset\n",
		n, sgxJobsAmong(n, *sgxRatio), *policy)

	// The slice is sorted by offset: advance the cluster to each job's
	// arrival, then submit it.
	start := cluster.Now()
	for i, record := range trace.Jobs[:n] {
		cluster.AdvanceTime(record.Submit - cluster.Now().Sub(start))
		job := experiments.TraceJob(fmt.Sprintf("job-%03d", i), record, isSGXJob(i, *sgxRatio), false)
		if err := cluster.SubmitJob(job); err != nil {
			return err
		}
	}

	if !cluster.WaitAll(24 * time.Hour) {
		return fmt.Errorf("jobs did not finish within the 24h horizon")
	}

	type row struct {
		name, node, phase string
		wait              time.Duration
	}
	var rows []row
	var waits []float64
	for i := 0; i < n; i++ {
		st, err := cluster.JobStatus(fmt.Sprintf("job-%03d", i))
		if err != nil {
			return err
		}
		rows = append(rows, row{st.Name, st.Node, st.Phase, st.Waiting})
		if st.Started {
			waits = append(waits, st.Waiting.Seconds())
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(stdout, "%-10s %-8s %-10s %s\n", "JOB", "NODE", "PHASE", "WAITING")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10s %-8s %-10s %v\n", r.name, r.node, r.phase, r.wait.Round(time.Millisecond))
	}

	stats := cluster.SchedulerStats()
	fmt.Fprintf(stdout, "\nscheduler: %d passes, %d bound, %d unschedulable attempts\n",
		stats.Passes, stats.Bound, stats.Unschedulable)
	sort.Float64s(waits)
	if len(waits) > 0 {
		fmt.Fprintf(stdout, "waiting: median %.1fs, max %.1fs\n", waits[len(waits)/2], waits[len(waits)-1])
	}
	return nil
}
