// Event fan-out: commit vs dissemination. With synchronous watch
// delivery the fan-out runs inside a mutating call: the committer that
// holds the broker's flush hands everybody's events to all subscribers,
// one after the other, before its own bind returns, so subscriber code
// (monitors, dashboards, autoscalers) runs on the commit path. The
// internal/watch async mode decouples the two: a commit appends its
// event to a versioned ring in O(1) and returns; per-subscriber pumps
// deliver in batches, and a subscriber that falls off the ring resyncs
// from a snapshot instead of slowing the writer.
//
// This walkthrough drains the same 1024-pod backlog with 1..8 real
// concurrent schedulers and 1..32 extra watchers, under both modes, and
// prints wall-clock binds/sec plus broker accounting. Expect sync
// batches of about one event (delivery keeps pace with the commits that
// pay for it) and async batches building up — and, on a loaded box,
// resyncs absorbing the overflow instead of back-pressure.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/sgxorch/sgxorch/internal/experiments"
)

// The grid: every mode × schedulers × watchers cell drains backlog pods.
var (
	schedulers = []int{1, 2, 4, 8}
	watchers   = []int{1, 32}
)

const backlog = 1024

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drains the grid and writes one row per cell to w, sync cells first.
func run(w io.Writer) error {
	fmt.Fprintf(w, "Event fan-out drain: %d-pod backlog, 128 nodes, real-goroutine scheduler rounds\n", backlog)
	fmt.Fprintln(w, "(wall-clock measurement — absolute numbers vary by machine; compare rows)")
	fmt.Fprintln(w)

	results, err := experiments.FanoutScenario(experiments.FanoutScenarioConfig{
		Schedulers: schedulers,
		Watchers:   watchers,
		Backlog:    backlog,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-7s %-11s %-9s %-6s %-11s %-9s %-10s %-8s %-8s\n",
		"broker", "schedulers", "watchers", "bound", "binds/sec", "drain", "meanbatch", "resyncs", "maxlag")
	prevAsync := false
	for _, r := range results {
		if r.Async != prevAsync {
			fmt.Fprintln(w)
			prevAsync = r.Async
		}
		mode := "sync"
		if r.Async {
			mode = "async"
		}
		fmt.Fprintf(w, "%-7s %-11d %-9d %-6d %-11.0f %-9s %-10.2f %-8d %-8d\n",
			mode, r.Schedulers, r.Watchers, r.Bound, r.BindsPerSecond,
			r.Elapsed.Round(1000*1000), r.MeanBatch, r.Resyncs, r.MaxLag)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The async broker moves event dissemination off the committing goroutines:")
	fmt.Fprintln(w, "extra watchers cost pump time, not commit latency, and deliveries batch up.")
	fmt.Fprintln(w, "In sync mode one committer at a time delivers for everybody, inline.")
	fmt.Fprintln(w, "Resyncs (if any) are slow subscribers recovering from ring overflow via a")
	fmt.Fprintln(w, "fresh snapshot — the writer never waited for them.")
	return nil
}
