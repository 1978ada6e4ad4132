package apiserver

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func prioPod(name string, prio int32) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: "s",
			Priority:      prio,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.MiB}},
			}},
		},
	}
}

// TestPendingQueuePriorityThenFCFS: the queue drains higher tiers first
// and first-come first-served within a tier, regardless of interleaved
// submission order.
func TestPendingQueuePriorityThenFCFS(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	submissions := []struct {
		name string
		prio int32
	}{
		{"low-1", 0}, {"high-1", 5}, {"low-2", 0}, {"mid-1", 3},
		{"high-2", 5}, {"mid-2", 3}, {"low-3", 0},
	}
	for _, s := range submissions {
		if err := srv.CreatePod(prioPod(s.name, s.prio)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high-1", "high-2", "mid-1", "mid-2", "low-1", "low-2", "low-3"}

	var got []string
	srv.VisitPending("", func(p *api.Pod) bool {
		got = append(got, p.Name)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VisitPending order = %v, want %v", got, want)
	}

	got = got[:0]
	for _, p := range srv.PendingPods("s") {
		got = append(got, p.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PendingPods order = %v, want %v", got, want)
	}

	snap, unsub := srv.ListAndWatchBatch(func([]WatchEvent) {}, nil)
	defer unsub()
	if fmt.Sprint(snap.Pending) != fmt.Sprint(want) {
		t.Fatalf("snapshot Pending order = %v, want %v", snap.Pending, want)
	}
}

// TestPendingQueueRandomizedAgainstReference churns random
// submit/remove/visit traffic through the bucketed queue and checks it
// against a straightforward sort-based model.
func TestPendingQueueRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := newPendingQueue()
	type entry struct {
		name string
		prio int32
		seq  int
	}
	var model []entry
	seq := 0
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(3) > 0 || len(model) == 0:
			name := fmt.Sprintf("p%05d", seq)
			prio := int32(rng.Intn(5) - 2)
			q.Push(name, uint64(seq), prio, "", "")
			model = append(model, entry{name: name, prio: prio, seq: seq})
			seq++
		default:
			i := rng.Intn(len(model))
			q.Remove(model[i].name)
			model = append(model[:i], model[i+1:]...)
		}
		if op%50 != 0 {
			continue
		}
		sorted := append([]entry(nil), model...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].prio != sorted[j].prio {
				return sorted[i].prio > sorted[j].prio
			}
			return sorted[i].seq < sorted[j].seq
		})
		got := q.Snapshot()
		if len(got) != len(sorted) || q.Len() != len(sorted) {
			t.Fatalf("op %d: queue has %d (Len %d), model has %d", op, len(got), q.Len(), len(sorted))
		}
		for i := range got {
			if got[i] != sorted[i].name {
				t.Fatalf("op %d: position %d = %s, model %s", op, i, got[i], sorted[i].name)
			}
		}
	}
}

// TestGangCoalescingStaysWithinPriorityTier: gang coalescing never
// crosses tiers. Co-members of one group split across two priorities
// coalesce independently inside each tier — the high tier's first
// member pulls only its same-tier peers forward, and the low-tier
// members keep their place behind every higher-priority pod instead of
// being hoisted up to join the gang.
func TestGangCoalescingStaysWithinPriorityTier(t *testing.T) {
	q := newPendingQueue()
	var seq uint64
	push := func(name string, prio int32, group string) {
		q.Push(name, seq, prio, group, "")
		seq++
	}
	// Tier 5: solo, gang, solo, gang — g-hi-2 should coalesce up next
	// to g-hi-1, but no further than its own tier.
	push("solo-hi-1", 5, "")
	push("g-hi-1", 5, "ring")
	push("solo-hi-2", 5, "")
	push("g-hi-2", 5, "ring")
	// Tier 0: same shape, same group name.
	push("solo-lo-1", 0, "")
	push("g-lo-1", 0, "ring")
	push("solo-lo-2", 0, "")
	push("g-lo-2", 0, "ring")

	want := []string{
		"solo-hi-1", "g-hi-1", "g-hi-2", "solo-hi-2",
		"solo-lo-1", "g-lo-1", "g-lo-2", "solo-lo-2",
	}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cross-tier gang order = %v, want %v", got, want)
	}

	// Removing one tier's members must not disturb the other tier's
	// coalescing (the group indexes are per-bucket).
	q.Remove("g-hi-1")
	q.Remove("solo-lo-1")
	want = []string{
		"solo-hi-1", "solo-hi-2", "g-hi-2",
		"g-lo-1", "g-lo-2", "solo-lo-2",
	}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after removals = %v, want %v", got, want)
	}

	// Draining the high tier entirely leaves the low tier's gang intact
	// and adjacent.
	for _, name := range []string{"solo-hi-1", "solo-hi-2", "g-hi-2"} {
		q.Remove(name)
	}
	want = []string{"g-lo-1", "g-lo-2", "solo-lo-2"}
	if got := q.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after draining the high tier = %v, want %v", got, want)
	}
}

// TestGangCoalescingCrossTierWindowedVisit: the server-level windowed
// walk over a gang that straddles tiers returns the high-tier members
// coalesced inside the window and never pulls the low-tier co-members
// past higher-priority solo pods to fill it.
func TestGangCoalescingCrossTierWindowedVisit(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	gangPod := func(name string, prio int32, group string) *api.Pod {
		p := prioPod(name, prio)
		p.Spec.PodGroup = group
		return p
	}
	for _, p := range []*api.Pod{
		gangPod("m-hi-1", 5, "mpi"),
		prioPod("solo-hi", 5),
		gangPod("m-hi-2", 5, "mpi"),
		prioPod("solo-lo", 0),
		gangPod("m-lo-1", 0, "mpi"),
		gangPod("m-lo-2", 0, "mpi"),
	} {
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	srv.VisitPendingN("s", 4, func(p *api.Pod) bool {
		got = append(got, p.Name)
		return true
	})
	// The window sees the whole high tier (gang coalesced ahead of the
	// solo pushed between its members), then FCFS into tier 0: solo-lo
	// arrived first and keeps its place — the low-tier gang members do
	// not jump it to rejoin their high-tier co-members.
	want := []string{"m-hi-1", "m-hi-2", "solo-hi", "solo-lo"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windowed cross-tier visit = %v, want %v", got, want)
	}

	var full []string
	srv.VisitPending("s", func(p *api.Pod) bool {
		full = append(full, p.Name)
		return true
	})
	wantFull := []string{"m-hi-1", "m-hi-2", "solo-hi", "solo-lo", "m-lo-1", "m-lo-2"}
	if fmt.Sprint(full) != fmt.Sprint(wantFull) {
		t.Fatalf("full cross-tier visit = %v, want %v", full, wantFull)
	}
}

// TestPreemptRequeuesBoundPod: preemption clears the binding, resets the
// scheduling timestamps, re-queues at the tail of the pod's tier and
// emits a PodUpdated event.
func TestPreemptRequeuesBoundPod(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	node := &api.Node{
		Name:        "n1",
		Capacity:    resource.List{resource.Memory: resource.GiB},
		Allocatable: resource.List{resource.Memory: resource.GiB},
		Ready:       true,
	}
	if err := srv.RegisterNode(node); err != nil {
		t.Fatal(err)
	}
	var events []WatchEvent
	unsub := srv.Subscribe(func(ev WatchEvent) { events = append(events, ev) })
	defer unsub()

	for _, name := range []string{"victim", "peer"} {
		if err := srv.CreatePod(prioPod(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Bind("victim", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.MarkRunning("victim"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1)

	if err := srv.Preempt("victim", "test"); err != nil {
		t.Fatal(err)
	}
	p, _ := srv.GetPod("victim")
	if p.Status.Phase != api.PodPending || p.Spec.NodeName != "" {
		t.Fatalf("preempted pod = %s on %q, want Pending unbound", p.Status.Phase, p.Spec.NodeName)
	}
	if !p.Status.ScheduledAt.IsZero() || !p.Status.StartedAt.IsZero() {
		t.Fatalf("scheduling timestamps not reset: %+v", p.Status)
	}
	if p.Status.Reason != "Preempted: test" {
		t.Fatalf("reason = %q", p.Status.Reason)
	}
	// Re-queued at the tail of its tier: peer (never scheduled) first.
	var order []string
	srv.VisitPending("", func(p *api.Pod) bool {
		order = append(order, p.Name)
		return true
	})
	if fmt.Sprint(order) != "[peer victim]" {
		t.Fatalf("requeue order = %v, want [peer victim]", order)
	}
	last := events[len(events)-1]
	if last.Type != PodUpdated || last.Pod.Name != "victim" || last.Pod.Spec.NodeName != "" {
		t.Fatalf("last event = %+v, want PodUpdated for unbound victim", last)
	}

	// The victim is schedulable again.
	if err := srv.Bind("victim", "n1"); err != nil {
		t.Fatalf("rebind after preemption: %v", err)
	}
}

// TestPreemptRejectsUnboundAndTerminalPods: only bound, live pods can be
// preempted.
func TestPreemptRejectsUnboundAndTerminalPods(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	if err := srv.CreatePod(prioPod("queued", 0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preempt("queued", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("preempting unbound pod: err = %v, want ErrConflict", err)
	}
	if err := srv.Preempt("ghost", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("preempting unknown pod: err = %v, want ErrNotFound", err)
	}
	if err := srv.MarkFailed("queued", "dead"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preempt("queued", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("preempting terminal pod: err = %v, want ErrConflict", err)
	}
}

// TestVisitPendingNWindowsDeepQueue fills the queue 100k deep and proves
// the capped visit returns exactly the queue head in order — and that it
// never copies the whole queue: names leave the queue a chunk at a time
// into a buffer on the walker's stack, so a walk allocates nothing and one
// pull copies pendingChunk names whatever the backlog behind them.
func TestVisitPendingNWindowsDeepQueue(t *testing.T) {
	clk := clock.NewSim()
	srv := New(clk)
	const depth = 100_000
	for i := 0; i < depth; i++ {
		// Priorities cycle so the head interleaves tiers; within a tier
		// FCFS order is submission order.
		if err := srv.CreatePod(prioPod(fmt.Sprintf("pod-%06d", i), int32(i%3))); err != nil {
			t.Fatal(err)
		}
	}

	var full []string
	srv.VisitPending("s", func(p *api.Pod) bool {
		full = append(full, p.Name)
		return true
	})
	if len(full) != depth {
		t.Fatalf("full visit saw %d pods, want %d", len(full), depth)
	}

	const window = 100
	var head []string
	srv.VisitPendingN("s", window, func(p *api.Pod) bool {
		head = append(head, p.Name)
		return true
	})
	if len(head) != window {
		t.Fatalf("windowed visit saw %d pods, want %d", len(head), window)
	}
	for i := range head {
		if head[i] != full[i] {
			t.Fatalf("windowed visit[%d] = %s, want %s (order not preserved)", i, head[i], full[i])
		}
	}

	// No O(queue) copy per call: a capped walk over a 100k backlog
	// allocates nothing. A full-queue copy would show up as slice growth
	// every run. (The race detector's instrumentation allocates, so the
	// count is only meaningful without it.)
	n := 0
	visit := func() {
		srv.VisitPendingN("s", window, func(p *api.Pod) bool {
			n++
			return true
		})
	}
	if allocs := testing.AllocsPerRun(50, visit); allocs > 0 && !raceEnabled {
		t.Fatalf("capped visit allocates %.0f objects/run over a %d-deep queue, want 0", allocs, depth)
	}
	if n == 0 {
		t.Fatal("visit callback never ran")
	}
	// One pull copies one chunk: counted through a cap as wide as the
	// queue, which the walk decrements by the names it takes.
	w := srv.WalkPending("s", depth)
	srv.PullPending(&w, func(*api.Pod) bool { return true })
	if copied := depth - w.left; copied != pendingChunk {
		t.Fatalf("one pull copied %d names out of a %d-deep queue, want %d", copied, depth, pendingChunk)
	}

	// Early stop from the callback still works under a window.
	var got []string
	srv.VisitPendingN("s", window, func(p *api.Pod) bool {
		got = append(got, p.Name)
		return len(got) < 7
	})
	if len(got) != 7 {
		t.Fatalf("early-stopped visit saw %d pods, want 7", len(got))
	}
}

// TestVisitPendingNCapKeepsGangsWhole: the cap on pods examined is
// checked between gangs, never inside one — a gang whose first member is
// inside the cap is delivered with every co-member the walk pulls forward
// behind it, and the walk stops there. A cap that cut a gang would leave
// the members it did deliver holding permits that can only time out.
func TestVisitPendingNCapKeepsGangsWhole(t *testing.T) {
	srv := New(clock.NewSim())
	for _, p := range []struct{ name, group string }{
		{"g-1", "ring"}, {"solo-1", ""}, {"g-2", "ring"}, {"g-3", "ring"}, {"g-4", "ring"}, {"solo-2", ""},
	} {
		pod := prioPod(p.name, 0)
		pod.Spec.PodGroup = p.group
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		limit int
		want  string
	}{
		{1, "[g-1 g-2 g-3 g-4]"},
		{2, "[g-1 g-2 g-3 g-4]"},
		{4, "[g-1 g-2 g-3 g-4]"},
		{5, "[g-1 g-2 g-3 g-4 solo-1]"},
		{0, "[g-1 g-2 g-3 g-4 solo-1 solo-2]"},
	} {
		var got []string
		srv.VisitPendingN("s", tc.limit, func(p *api.Pod) bool {
			got = append(got, p.Name)
			return true
		})
		if fmt.Sprint(got) != tc.want {
			t.Errorf("cap %d delivered %v, want %s", tc.limit, got, tc.want)
		}
	}
}

// modelPod is one queued pod of the plain-slice reference queue the pull
// is checked against.
type modelPod struct {
	name  string
	prio  int32
	group string
	seq   uint64
}

// modelVisit is the queue's walk order restated over a plain slice of
// live pods in push order: tiers descending, FCFS inside a tier, the
// first member of a gang followed at once by its co-members of that tier.
func modelVisit(live []modelPod) []modelPod {
	sorted := append([]modelPod(nil), live...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].prio > sorted[j].prio })
	var out []modelPod
	emitted := map[string]bool{}
	for i, p := range sorted {
		if emitted[p.name] {
			continue
		}
		emitted[p.name] = true
		out = append(out, p)
		if p.group == "" {
			continue
		}
		for _, m := range sorted[i+1:] {
			if m.prio == p.prio && m.group == p.group && !emitted[m.name] {
				emitted[m.name] = true
				out = append(out, m)
			}
		}
	}
	return out
}

func modelNames(pods []modelPod) []string {
	out := make([]string, len(pods))
	for i, p := range pods {
		out[i] = p.name
	}
	return out
}

// TestPendingPullModelProperty checks the chunked pull against the walk
// it replaced — one ordered visit of the queue as it stood when the pass
// began — on random queues (1–4 tiers, 0–3 gangs, a second scheduler's
// pods as noise) that keep changing between pulls: pods removed ahead of
// and behind the cursor, removed pods re-pushed (the preemption
// re-queue), fresh pushes, removals in bulk (tombstone compaction, tiers
// emptied), one tier emptied and refilled, and the whole sub-queue
// emptied, kept and refilled.
//
// Two statements, the second the stronger: (1) every pull delivers
// exactly the next names of today's order over what is live now and older
// than the horizon, from where the walk stands — so the walk as a whole
// delivers the start snapshot minus the pods removed before they were
// reached, each once, and nothing pushed after it began, a refill of an
// emptied tier or sub-queue included; (2) as long as no gang member was
// removed mid-walk (removing a gang's first member moves where the rest of
// it surfaces), the delivered sequence IS that snapshot with the removed
// pods struck out, position for position.
func TestPendingPullModelProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := newPendingSet()
		var live []modelPod // scheduler "s", push order
		serial := 0
		tiers, gangs := 1+rng.Intn(4), rng.Intn(4)
		push := func(name string, prio int32, group string) {
			live = append(live, modelPod{name: name, prio: prio, group: group, seq: ps.nextSeq})
			ps.Push(name, "s", prio, group, "")
		}
		pushFresh := func() {
			group := ""
			if gangs > 0 && rng.Intn(3) == 0 {
				group = fmt.Sprintf("gang-%d", rng.Intn(gangs))
			}
			serial++
			push(fmt.Sprintf("p%04d", serial), int32(rng.Intn(tiers)), group)
			if rng.Intn(4) == 0 { // another scheduler's pod shares the stamps
				serial++
				ps.Push(fmt.Sprintf("other%04d", serial), "o", int32(rng.Intn(tiers)), "", "")
			}
		}
		remove := func(i int) modelPod {
			p := live[i]
			ps.Remove(p.name, "s")
			live = append(live[:i], live[i+1:]...)
			return p
		}
		for n := rng.Intn(400); n > 0; n-- {
			pushFresh()
		}
		for n := rng.Intn(len(live)/2 + 1); n > 0; n-- { // tombstones before the walk begins
			remove(rng.Intn(len(live)))
		}

		// A capped walk over the quiet queue: whole gangs until the cap is
		// reached, then nothing.
		snapshot := modelVisit(live)
		{
			limit := 1 + rng.Intn(len(snapshot)+1)
			var want []string
			for i, p := range snapshot {
				inGang := i > 0 && p.group != "" && snapshot[i-1].group == p.group && snapshot[i-1].prio == p.prio
				if len(want) >= limit && !inGang {
					break
				}
				want = append(want, p.name)
			}
			var got []string
			cur, left := newPendingCursor(ps.nextSeq), limit
			for more := true; more && left > 0; {
				n := len(got)
				got, more = ps.pull("s", &cur, got, left)
				left -= len(got) - n
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d: walk capped at %d delivered\n%v, want\n%v", seed, limit, got, want)
			}
		}

		// The open walk, the queue changing between its pulls.
		horizon := ps.nextSeq
		cur := newPendingCursor(horizon)
		var delivered []string
		seen := map[string]bool{}
		var removed []modelPod // not re-pushed yet
		removedUnreached := map[string]bool{}
		gangTouched := false
		take := func(i int) {
			p := remove(i)
			removed = append(removed, p)
			if p.seq < horizon && !seen[p.name] {
				removedUnreached[p.name] = true
				gangTouched = gangTouched || p.group != ""
			}
		}
		// The walk's place in the order: the tier it is in and the highest
		// stamp it delivered there.
		posPrio, posSeq, started := int32(0), uint64(0), false
		for more := true; more; {
			var want []string
			for _, p := range modelVisit(live) {
				if p.seq >= horizon || seen[p.name] {
					continue
				}
				if started && (p.prio > posPrio || (p.prio == posPrio && p.seq < posSeq)) {
					continue
				}
				want = append(want, p.name)
			}
			var names []string
			names, more = ps.pull("s", &cur, nil, 0)
			if len(names) > len(want) || fmt.Sprint(names) != fmt.Sprint(want[:len(names)]) {
				t.Fatalf("seed %d: pull after %d delivered\n%v, want a prefix of\n%v", seed, len(delivered), names, want)
			}
			if !more && len(names) != len(want) {
				t.Fatalf("seed %d: walk ended with %v undelivered", seed, want[len(names):])
			}
			for _, name := range names {
				if seen[name] {
					t.Fatalf("seed %d: %s delivered twice", seed, name)
				}
				seen[name] = true
				delivered = append(delivered, name)
				for _, p := range live {
					if p.name != name {
						continue
					}
					if p.seq >= horizon {
						t.Fatalf("seed %d: %s (stamp %d) delivered past horizon %d", seed, name, p.seq, horizon)
					}
					if !started || p.prio < posPrio {
						posPrio, posSeq, started = p.prio, p.seq, true
					}
					posSeq = max(posSeq, p.seq)
				}
			}

			for ops := rng.Intn(6); ops > 0; ops-- {
				switch op := rng.Intn(11); {
				case op < 4 && len(live) > 0:
					take(rng.Intn(len(live)))
				case op < 6 && len(removed) > 0: // the preemption re-queue
					i := rng.Intn(len(removed))
					p := removed[i]
					removed = append(removed[:i], removed[i+1:]...)
					push(p.name, p.prio, p.group)
				case op < 8:
					pushFresh()
				case op == 8: // bulk removal: compaction, tiers emptied
					for n := len(live) * 2 / 3; n > 0; n-- {
						take(rng.Intn(len(live)))
					}
				case op == 9 && len(live) > 0: // one tier emptied, kept, refilled
					prio := live[rng.Intn(len(live))].prio
					for i := len(live) - 1; i >= 0; i-- {
						if live[i].prio == prio {
							take(i)
						}
					}
					if b := ps.bySched["s"].buckets[prio]; b == nil || len(b.entries) != 0 || !slices.Contains(ps.bySched["s"].prios, prio) {
						t.Fatalf("seed %d: emptied tier %d was not kept, truncated", seed, prio)
					}
					serial++
					push(fmt.Sprintf("p%04d", serial), prio, "")
				default: // the sub-queue emptied, kept, refilled
					kept := ps.bySched["s"]
					for len(live) > 0 {
						take(len(live) - 1)
					}
					if ps.bySched["s"] != kept || kept.Len() != 0 {
						t.Fatalf("seed %d: emptied sub-queue was not kept", seed)
					}
					pushFresh()
				}
			}
		}

		var want []string
		for _, name := range modelNames(snapshot) {
			if !removedUnreached[name] {
				want = append(want, name)
			}
		}
		if len(delivered) != len(want) {
			t.Fatalf("seed %d: delivered %d pods, snapshot minus removed has %d", seed, len(delivered), len(want))
		}
		if gangTouched {
			sort.Strings(delivered)
			sort.Strings(want)
		}
		if fmt.Sprint(delivered) != fmt.Sprint(want) {
			t.Fatalf("seed %d (gang member removed mid-walk: %v): delivered\n%v, want\n%v", seed, gangTouched, delivered, want)
		}
	}
}

// TestPendingPushIntoEmptiedQueueAllocatesNothing: a pod arriving into
// an empty queue — the common case of the paper's replay — finds its
// scheduler's sub-queue and its tier where the last pod left them, so once
// their maps and slices have grown the push and the removal that empties
// them again allocate nothing. Dropping either on empty re-made four maps
// and a bucket per arrival.
func TestPendingPushIntoEmptiedQueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ps := newPendingSet()
	names := [...]string{"a", "b", "c", "d"}
	i := 0
	cycle := func() {
		name := names[i%len(names)]
		i++
		ps.Push(name, "s", 3, "", api.ClassBatch)
		ps.Remove(name, "s")
	}
	for range 16 {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a push into an emptied, kept sub-queue and tier allocates %v times, want 0", got)
	}
	if ps.Len() != 0 || ps.bySched["s"] == nil || len(ps.bySched["s"].prios) != 1 {
		t.Fatalf("queue after the cycles: %d queued, sub-queue %v", ps.Len(), ps.bySched["s"])
	}
}

// TestPendingPullConcurrentDrain: two fleet members drain their own
// sub-queues side by side, each pulling a chunk and binding it while the
// other pulls and binds — every queue mutation of one lands between the
// pulls of the other's open walk. Each pod is handed out exactly once
// (never again after its bind took it off the queue), every bind
// commits, and the backlog is bound to the last pod.
func TestPendingPullConcurrentDrain(t *testing.T) {
	srv := New(clock.NewSim())
	big := resource.List{resource.Memory: 1 << 50}
	if err := srv.RegisterNode(&api.Node{Name: "n", Capacity: big, Allocatable: big, Ready: true}); err != nil {
		t.Fatal(err)
	}
	members := []string{"a", "b"}
	const backlog = 3000
	for i := 0; i < backlog; i++ {
		p := prioPod(fmt.Sprintf("pod-%04d", i), int32(i%3))
		p.Spec.SchedulerName = members[i%2]
		if i%50 < 4 { // a few gangs, so some tiers are pulled whole
			p.Spec.PodGroup = fmt.Sprintf("gang-%d", i/50)
		}
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, member := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handed := map[string]bool{}
			for len(handed) < backlog/2 {
				// One pass: pull a chunk, bind it, pull again, give up after a
				// budget of binds — the open walk outlives its own binds.
				w, budget, before := srv.WalkPending(member, 0), 100, len(handed)
				for more := true; more && budget > 0; {
					var chunk []string
					more = srv.PullPending(&w, func(p *api.Pod) bool {
						chunk = append(chunk, p.Name)
						return true
					})
					for _, name := range chunk {
						if handed[name] {
							t.Errorf("member %s: %s handed out again after it was bound", member, name)
							return
						}
						handed[name] = true
						if err := srv.Bind(name, "n"); err != nil {
							t.Errorf("member %s: bind %s: %v", member, name, err)
							return
						}
						budget--
					}
				}
				if len(handed) == before {
					t.Errorf("member %s: a walk found nothing with %d of its pods unbound", member, backlog/2-before)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bs := srv.BindStats(); bs.Bound != backlog || bs.Attempts != backlog {
		t.Fatalf("bound %d in %d attempts, want the %d backlog bound once each", bs.Bound, bs.Attempts, backlog)
	}
	if n := srv.PendingCount(); n != 0 {
		t.Fatalf("%d pods still queued", n)
	}
}
