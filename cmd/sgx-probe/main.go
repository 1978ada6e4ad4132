// Command sgx-probe demonstrates the monitoring pipeline of §V-C: SGX
// workloads run on a simulated node, the metrics probe pushes their EPC
// usage into the time-series database, and the paper's Listing 1 query is
// executed against it. The query's window is Listing 1's verbatim 25 s,
// not a flag. The node and its monitoring plane are one
// experiments.Testbed; the demo creates its pods and binds them by hand,
// and one beyond the free EPC is refused at the bind (§V-A).
//
// Usage:
//
//	sgx-probe [-pods N] [-interval 10s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/experiments"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// listing1 is the verbatim query of §V-C.
const listing1 = `SELECT SUM(epc) AS epc FROM
(SELECT MAX(value) AS epc FROM "sgx/epc"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-probe:", err)
		os.Exit(1)
	}
}

// run parses args, runs the pipeline and writes what it saw to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgx-probe", flag.ContinueOnError)
	pods := fs.Int("pods", 3, "number of SGX pods to run")
	interval := fs.Duration("interval", 10*time.Second, "probe scrape interval")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %v", *interval)
	}

	// One SGX node under a request-only scheduler: the demo's pods name
	// no scheduler and are bound by hand, so the pass never sees them.
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{
		Nodes:          experiments.Fleet(0, 1, experiments.DefaultEPC, false),
		ScrapeInterval: *interval,
		Scheduler:      core.Config{Name: "sgx-probe", Policy: core.Binpack{}},
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	// The testbed runs a probe on every SGX node, here every node.
	fmt.Fprintf(stdout, "deployed %d probe(s) via DaemonSet on SGX-enabled nodes\n", len(tb.Kubelets))

	for i := 0; i < *pods; i++ {
		pages := int64(2560 * (i + 1))
		pod := &api.Pod{
			Name: fmt.Sprintf("enclave-%d", i),
			Spec: api.PodSpec{Containers: []api.Container{{
				Name: "stress-sgx",
				Resources: api.Requirements{
					Requests: resource.List{resource.EPCPages: pages},
					Limits:   resource.List{resource.EPCPages: pages},
				},
				Workload: api.WorkloadSpec{
					Kind:       api.WorkloadStressEPC,
					Duration:   10 * time.Minute,
					AllocBytes: resource.BytesForPages(pages),
				},
			}}},
		}
		if err := tb.Srv.CreatePod(pod); err != nil {
			return err
		}
		if err := tb.Srv.Bind(pod.Name, "sgx-1"); err != nil {
			if errors.Is(err, apiserver.ErrConflict) {
				// Expected once the pool runs out: the conditional bind
				// refuses EPC over-commitment at admission (§V-A).
				fmt.Fprintf(stdout, "%s denied at bind admission (EPC pool exhausted): ok\n", pod.Name)
				continue
			}
			return err
		}
	}

	// Let workloads start and the probe collect a few samples.
	tb.Clk.Advance(45 * time.Second)

	fmt.Fprintln(stdout, "\ndriver counters:")
	sysfs := tb.Kubelets[0].Machine().Driver().Sysfs()
	for _, path := range slices.Sorted(maps.Keys(sysfs)) {
		fmt.Fprintf(stdout, "  %s = %s\n", path, sysfs[path])
	}

	fmt.Fprintln(stdout, "\nListing 1 (verbatim InfluxQL):")
	fmt.Fprintln(stdout, listing1)
	res, err := influxql.Execute(tb.DB, listing1)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nresult:")
	for _, row := range res.Rows {
		fmt.Fprintf(stdout, "  nodename=%s  epc=%.0f bytes (%.1f MiB)\n",
			row.Tags[monitor.TagNode], row.Value, row.Value/float64(resource.MiB))
	}

	fmt.Fprintln(stdout, "\nper-pod window peaks (tsdb scan path):")
	peaks := monitor.WindowPeak(tb.DB, monitor.MeasurementEPC, 25*time.Second)
	keys := make([]monitor.PodNode, 0, len(peaks))
	for key := range peaks {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Pod < keys[j].Pod
	})
	for _, key := range keys {
		fmt.Fprintf(stdout, "  pod=%s node=%s  peak=%.1f MiB\n",
			key.Pod, key.Node, peaks[key]/float64(resource.MiB))
	}
	return nil
}
