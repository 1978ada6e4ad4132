// Workload classes: one scheduler fleet, three service tiers. Jobs
// declare a class — latency-sensitive, batch or
// best-effort — and each class resolves to its own scheduling profile:
// latency-sensitive scores usage-aware, never narrows its candidate
// search below the sampling floor and may preempt (including evicting
// best-effort pods at any priority); batch bin-packs and waits its
// turn; best-effort spreads and is the always-evictable filler tier.
// This walkthrough saturates the §VI-A fleet with a best-effort wave,
// then lands latency-sensitive and batch waves on top and reports the
// per-class p50/p99 waiting times, preemption ledger, SGX utilization
// and the capacity invariant replayed from the watch stream.
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

// run plays the mixed fleet and writes the walkthrough to w; it fails
// unless latency-sensitive p99 wait lands strictly below the other two
// tiers with no capacity violation.
func run(w io.Writer) error {
	fmt.Fprintln(w, "Mixed-fleet workload classes (45 best-effort fillers, then 15 latency-sensitive")
	fmt.Fprintln(w, "+ 15 batch jobs on an occupied 2 std + 2 SGX node fleet)")
	fmt.Fprintln(w)

	res, err := experiments.ClassesMixedFleet(experiments.ClassesExpConfig{Seed: 9})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-18s %-6s %-12s %-12s %-10s %-10s %-8s\n",
		"class", "jobs", "p50-wait", "p99-wait", "suffered", "inflicted", "victims")
	for _, class := range []string{"latency-sensitive", "batch", "best-effort"} {
		o := res.PerClass[class]
		fmt.Fprintf(w, "%-18s %-6d %-12s %-12s %-10d %-10d %-8d\n",
			class, o.Jobs, o.P50Wait, o.P99Wait,
			o.PreemptionsSuffered, o.PreemptionsInflicted, o.Victims)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "drained=%t in %s, SGX(EPC) utilization %.1f%%, capacity violations %d\n",
		res.Completed, res.DrainTime, 100*res.SGXUtilization, res.Violations)

	ls := res.PerClass["latency-sensitive"]
	batch := res.PerClass["batch"]
	be := res.PerClass["best-effort"]
	if !res.Completed || res.Violations != 0 ||
		ls.P99Wait >= batch.P99Wait || ls.P99Wait >= be.P99Wait ||
		ls.PreemptionsSuffered != 0 {
		return fmt.Errorf("class invariant broken: %+v", res)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Latency-sensitive p99 wait sits strictly below both other tiers: it cut the")
	fmt.Fprintln(w, "queue by evicting best-effort fillers, while batch — which never preempts —")
	fmt.Fprintln(w, "waited for the fillers to finish. The violations column replays every bind")
	fmt.Fprintln(w, "against node capacity: the class fast path never oversubscribed a node.")
	return nil
}
