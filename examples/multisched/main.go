// Multi-scheduler shared-state scheduling: the paper packages the
// scheduler "as a Kubernetes pod" and notes several can serve one cluster
// concurrently (§V-B). This walkthrough drains the same Borg backlog with
// 1, 2 and 4 sharded schedulers over one API server. Every scheduler
// plans optimistically against its own event-driven cache; the API
// server's admission-checked conditional Bind arbitrates: the loser of a
// capacity race gets a typed conflict, keeps its pod pending, and retries
// next round from a refreshed view. The run reports drain throughput,
// the conflict rate, and the safety invariant re-derived purely from the
// watch event stream — no node is ever overcommitted, no matter how many
// schedulers race.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/sgxorch/sgxorch/internal/experiments"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drains the backlog at 1, 2 and 4 schedulers and writes the
// walkthrough to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "Multi-scheduler backlog drain (Borg eval slice, 663 jobs, 16 std + 4 SGX nodes)")
	fmt.Fprintln(w, "Each scheduler binds at most 2 pods per 5 s pass; pods are sharded by name hash.")
	fmt.Fprintln(w)

	cmp, err := experiments.MultiSchedScenario(1)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-11s %-12s %-12s %-11s %-14s %-10s\n",
		"schedulers", "drain", "binds/sec", "conflicts", "conflict-rate", "violations")
	for _, r := range cmp.Results {
		fmt.Fprintf(w, "%-11d %-12s %-12.3f %-11d %-14.3f %-10d\n",
			r.Shards, r.DrainTime, r.BindsPerSecond, r.Conflicts, r.ConflictRate, r.Violations)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "speedup: 2 schedulers %.2fx, 4 schedulers %.2fx over one\n", cmp.SpeedupX2, cmp.SpeedupX4)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Conflicts are not failures: each one is a bind the server refused because")
	fmt.Fprintln(w, "a concurrent scheduler won that capacity first — the losing pod simply")
	fmt.Fprintln(w, "reschedules. The violations column proves the invariant: replaying the")
	fmt.Fprintln(w, "watch events, no node's committed requests ever exceeded its allocatable.")
	return nil
}
