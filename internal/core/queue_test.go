package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// queueOrder is one whole walk of the named scheduler's queue, by pod name.
func queueOrder(c *ClusterCache, sched string) []string {
	w := c.walk(sched)
	var out []string
	var buf []queuedPod
	for more := true; more; {
		buf, more = c.pull(&w, buf[:0])
		for _, e := range buf {
			out = append(out, e.pod.Name)
		}
	}
	return out
}

// bareQueues is a cluster cache reduced to its queues, fed pod events
// directly through queueLocked.
func bareQueues() *ClusterCache {
	return &ClusterCache{queues: make(map[string]*podQueue)}
}

// queuedAs is the pod an event shows entering the queue; gone is the same
// pod leaving it (bound).
func queuedAs(name, sched string, prio int32, group string) *api.Pod {
	return &api.Pod{Name: name, Spec: api.PodSpec{SchedulerName: sched, Priority: prio, PodGroup: group},
		Status: api.PodStatus{Phase: api.PodPending}}
}

// queued counts the pods in q.
func queued(q *podQueue) int {
	n := 0
	for _, b := range q.buckets {
		n += len(b.byName)
	}
	return n
}

func gone(p *api.Pod) *api.Pod {
	q := *p
	q.Spec.NodeName = "n"
	return &q
}

// modelPod is one queued pod of the plain-slice reference queue the walk
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

// TestQueueOrderMatchesReferenceProperty referees the scheduler's queue
// against internal/model: at the start of every pass of the failure
// memo's churn (memo_test.go) — 200 seeds over a full-scan fleet, a
// sampled fleet and a two-member round-robin fleet, every round's start
// for the last — each member's whole walk of its queue must be the
// model's Pending order (priority, then queue rev) of that member's pods,
// with each gang coalesced behind its first member in a tier (modelVisit).
// After each comparison a straggler joins the first gang still queued,
// behind every pod queued since its co-members, so later walks meet gangs
// the queue must pull together.
func TestQueueOrderMatchesReferenceProperty(t *testing.T) {
	walks, queued, stragglers := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		topo := memoTopology(seed % int64(numMemoTopologies))
		runMemoScenario(t, seed, topo, true, func(ref *model.Cluster, srv *apiserver.Server, members []*Scheduler) {
			pending := ref.Pending()
			defer func() {
				for _, name := range pending {
					if p, _ := srv.GetPod(name); p.Spec.InGang() {
						p = p.Clone()
						stragglers++
						p.Name = fmt.Sprintf("%s-late-%d", p.Spec.PodGroup, stragglers)
						p.UID, p.Status = 0, api.PodStatus{}
						if err := srv.CreatePod(p); err != nil {
							t.Fatal(err)
						}
						return
					}
				}
			}()
			for _, m := range members {
				var live []modelPod
				for _, name := range pending {
					if p, _ := srv.GetPod(name); p.Spec.SchedulerName == m.Name() {
						mp := ref.Pods[name]
						live = append(live, modelPod{name: name, prio: mp.Priority, group: p.Spec.PodGroup, seq: uint64(mp.QueuedAt)})
					}
				}
				want := modelNames(modelVisit(live))
				if got := queueOrder(m.cache, m.Name()); !slices.Equal(got, want) {
					t.Fatalf("seed %d (%s), walk %d of %s:\nqueue %v\nmodel %v", seed, topo, walks, m.Name(), got, want)
				}
				walks++
				queued += len(want)
			}
		})
	}
	if queued == 0 {
		t.Fatal("no walk found a queued pod: the property is vacuous")
	}
	t.Logf("%d walks, %d queued pods compared", walks, queued)
}

// TestPendingPullModelProperty checks the chunked pull against the walk
// it replaced — one ordered visit of the queue as it stood when the pass
// began — on random queues (1–4 tiers, 0–3 gangs, a second scheduler's
// pods as noise) that keep changing between pulls: pods removed ahead of
// and behind the cursor, removed pods re-pushed (the preemption
// re-queue), fresh pushes, removals in bulk (tombstone compaction, tiers
// emptied), one tier emptied and refilled, the whole queue emptied, kept
// and refilled, and the queues rebuilt from a snapshot (a resync).
//
// Two statements, the second the stronger: (1) every pull delivers
// exactly the next names of today's order over what is live now and older
// than the horizon, from where the walk stands — so the walk as a whole
// delivers the start snapshot minus the pods removed before they were
// reached, each once, and nothing pushed after it began, a refill of an
// emptied tier or queue and a resync's rebuild included; (2) as long as no
// gang member was removed mid-walk (removing a gang's first member moves
// where the rest of it surfaces), the delivered sequence IS that snapshot
// with the removed pods struck out, position for position.
func TestPendingPullModelProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := bareQueues()
		var live []modelPod // scheduler "s", push order
		pods := map[string]*api.Pod{}
		serial := 0
		tiers, gangs := 1+rng.Intn(4), rng.Intn(4)
		push := func(name string, prio int32, group string) {
			live = append(live, modelPod{name: name, prio: prio, group: group, seq: c.queueSeq})
			pods[name] = queuedAs(name, "s", prio, group)
			c.queueLocked(pods[name])
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
				c.queueLocked(queuedAs(fmt.Sprintf("other%04d", serial), "o", int32(rng.Intn(tiers)), ""))
			}
		}
		remove := func(i int) modelPod {
			p := live[i]
			c.queueLocked(gone(pods[p.name]))
			live = append(live[:i], live[i+1:]...)
			return p
		}
		for n := rng.Intn(400); n > 0; n-- {
			pushFresh()
		}
		for n := rng.Intn(len(live)/2 + 1); n > 0; n-- { // tombstones before the walk begins
			remove(rng.Intn(len(live)))
		}

		snapshot := modelVisit(live)

		// The open walk, the queue changing between its pulls.
		w := c.walk("s")
		horizon := w.cur.horizon
		var delivered []string
		seen := map[string]bool{}
		var removed []modelPod // not re-pushed yet
		removedUnreached := map[string]bool{}
		gangTouched := false
		unreached := func(p modelPod) {
			if p.seq < horizon && !seen[p.name] {
				removedUnreached[p.name] = true
				gangTouched = gangTouched || p.group != ""
			}
		}
		take := func(i int) {
			p := remove(i)
			removed = append(removed, p)
			unreached(p)
		}
		// The walk's place in the order: the tier it is in and the highest
		// stamp it delivered there.
		posPrio, posSeq, started := int32(0), uint64(0), false
		var buf []queuedPod
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
			buf, more = c.pull(&w, buf[:0])
			var names []string
			for _, e := range buf {
				names = append(names, e.pod.Name)
			}
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
				switch op := rng.Intn(12); {
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
					if b := c.queues["s"].buckets[prio]; b == nil || len(b.entries) != 0 || !slices.Contains(c.queues["s"].prios, prio) {
						t.Fatalf("seed %d: emptied tier %d was not kept, truncated", seed, prio)
					}
					serial++
					push(fmt.Sprintf("p%04d", serial), prio, "")
				case op == 10: // a resync rebuilds the queues from a snapshot
					// The snapshot's pending pods come in no order, each
					// beside its queue rev (a stamp is one, in push
					// order): the prime must restore tiers, then FCFS.
					order := slices.Clone(live)
					slices.SortStableFunc(order, func(a, b modelPod) int { return int(b.prio) - int(a.prio) })
					snap := apiserver.Snapshot{}
					for _, p := range order {
						unreached(p)
						snap.Pending = append(snap.Pending, apiserver.Queued{Pod: p.name, Rev: int64(p.seq)})
						snap.Pods = append(snap.Pods, pods[p.name])
					}
					rng.Shuffle(len(snap.Pending), func(i, j int) { snap.Pending[i], snap.Pending[j] = snap.Pending[j], snap.Pending[i] })
					sort.Slice(snap.Pods, func(i, j int) bool { return snap.Pods[i].Name < snap.Pods[j].Name })
					live = live[:0]
					for _, p := range order {
						p.seq = c.queueSeq + uint64(len(live))
						live = append(live, p)
					}
					c.primeQueuesLocked(snap)
					if got, want := queueOrder(c, "s"), modelNames(modelVisit(live)); !slices.Equal(got, want) {
						t.Fatalf("seed %d: the queue primed from a shuffled snapshot walks\n%v, want\n%v", seed, got, want)
					}
				default: // the queue emptied, kept, refilled
					kept := c.queues["s"]
					for len(live) > 0 {
						take(len(live) - 1)
					}
					if c.queues["s"] != kept || queued(kept) != 0 {
						t.Fatalf("seed %d: emptied queue was not kept", seed)
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
// scheduler's queue and its tier where the last pod left them, so once
// their maps and slices have grown the push and the removal that empties
// them again allocate nothing. Dropping either on empty re-made three maps
// and a bucket per arrival.
func TestPendingPushIntoEmptiedQueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := bareQueues()
	var pods [4]*api.Pod
	for i, name := range [...]string{"a", "b", "c", "d"} {
		pods[i] = queuedAs(name, "s", 3, "")
	}
	left := [4]*api.Pod{gone(pods[0]), gone(pods[1]), gone(pods[2]), gone(pods[3])}
	i := 0
	cycle := func() {
		k := i % len(pods)
		i++
		c.queueLocked(pods[k])
		c.queueLocked(left[k])
	}
	for range 16 {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a push into an emptied, kept queue and tier allocates %v times, want 0", got)
	}
	if q := c.queues["s"]; q == nil || queued(q) != 0 || len(q.prios) != 1 {
		t.Fatalf("queue after the cycles: %+v", q)
	}
}

// newQueueCache returns a server and a cluster cache watching it.
func newQueueCache(t *testing.T) (*apiserver.Server, *ClusterCache) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	t.Cleanup(srv.Close)
	c := newClusterCache(clk, srv, nil, 0)
	t.Cleanup(c.Close)
	return srv, c
}

// createQueued submits pods of scheduler "s" (group "" for a solo pod).
func createQueued(t *testing.T, srv *apiserver.Server, pods ...*api.Pod) {
	t.Helper()
	for _, p := range pods {
		p.Spec.SchedulerName = "s"
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheQueueOrdersServerScenarios: the API server hands out its
// pending pods in no order, so priority, then FCFS, is the cache's to
// keep. Over the scenarios whose queue revs internal/apiserver's pending
// tests pin, both the queue a cache keeps from the live stream and the
// queue a fresh ListAndWatchBatch handshake primes from the snapshot are
// that order.
func TestCacheQueueOrdersServerScenarios(t *testing.T) {
	create := func(t *testing.T, srv *apiserver.Server, sched, name string, prio int32) {
		t.Helper()
		p := memPod(name, resource.MiB, prio)
		p.Spec.SchedulerName = sched
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	node := func(t *testing.T, srv *apiserver.Server) {
		t.Helper()
		big := resource.List{resource.Memory: 1 << 50}
		if err := srv.RegisterNode(&api.Node{Name: "n", Capacity: big, Allocatable: big, Ready: true}); err != nil {
			t.Fatal(err)
		}
	}
	const depth = 100_000
	var deep [3][]string // the deep queue's tiers, ascending
	for i := range depth {
		deep[i%3] = append(deep[i%3], fmt.Sprintf("pod-%06d", i))
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, srv *apiserver.Server)
		want  map[string][]string // by scheduler
	}{
		{"PriorityThenFCFS", func(t *testing.T, srv *apiserver.Server) {
			for _, p := range []struct {
				name string
				prio int32
			}{
				{"low-1", 0}, {"high-1", 5}, {"low-2", 0}, {"mid-1", 3},
				{"high-2", 5}, {"mid-2", 3}, {"low-3", 0},
			} {
				create(t, srv, "s", p.name, p.prio)
			}
		}, map[string][]string{"s": {"high-1", "high-2", "mid-1", "mid-2", "low-1", "low-2", "low-3"}}},
		{"FCFSPerScheduler", func(t *testing.T, srv *apiserver.Server) {
			for i := range 5 {
				create(t, srv, []string{"s", "other"}[i%2], fmt.Sprintf("pod-%d", i), 0)
			}
		}, map[string][]string{"s": {"pod-0", "pod-2", "pod-4"}, "other": {"pod-1", "pod-3"}}},
		{"BindsAndFailuresKeepFCFS", func(t *testing.T, srv *apiserver.Server) {
			node(t, srv)
			for i := range 200 {
				create(t, srv, "s", fmt.Sprintf("pod-%03d", i), 0)
			}
			for i := 0; i < 200; i += 2 {
				if err := srv.Bind(fmt.Sprintf("pod-%03d", i), "n"); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < 100; i += 2 {
				if err := srv.MarkFailed(fmt.Sprintf("pod-%03d", i), "chaos"); err != nil {
					t.Fatal(err)
				}
			}
			for i := range 5 {
				create(t, srv, "s", fmt.Sprintf("late-%d", i), 0)
			}
		}, map[string][]string{"s": func() (out []string) {
			for i := 101; i < 200; i += 2 {
				out = append(out, fmt.Sprintf("pod-%03d", i))
			}
			return append(out, "late-0", "late-1", "late-2", "late-3", "late-4")
		}()}},
		{"PreemptRequeuesAtTierTail", func(t *testing.T, srv *apiserver.Server) {
			node(t, srv)
			create(t, srv, "s", "victim", 1)
			create(t, srv, "s", "peer", 1)
			if err := srv.Bind("victim", "n"); err != nil {
				t.Fatal(err)
			}
			if err := srv.MarkRunning("victim"); err != nil {
				t.Fatal(err)
			}
			if err := srv.Preempt("victim", "test"); err != nil {
				t.Fatal(err)
			}
		}, map[string][]string{"s": {"peer", "victim"}}},
		{"DeepQueue", func(t *testing.T, srv *apiserver.Server) {
			for i := range depth {
				create(t, srv, "s", fmt.Sprintf("pod-%06d", i), int32(i%3))
			}
		}, map[string][]string{"s": slices.Concat(deep[2], deep[1], deep[0])}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, live := newQueueCache(t)
			tc.build(t, srv)
			primed := newClusterCache(clock.NewSim(), srv, nil, 0)
			defer primed.Close()
			for _, c := range []struct {
				how   string
				cache *ClusterCache
			}{{"live stream", live}, {"fresh prime", primed}} {
				for sched, want := range tc.want {
					if got := queueOrder(c.cache, sched); !slices.Equal(got, want) {
						t.Fatalf("%s: %s's queue (%d pods) diverges from priority-then-FCFS (%d pods)\n%v\nwant\n%v",
							c.how, sched, len(got), len(want), got[:min(len(got), 20)], want[:min(len(want), 20)])
					}
				}
			}
		})
	}
}

// TestPendingQueueCoalescesGangMembers: within a priority tier the queue
// surfaces a gang's members adjacently, so one scheduling pass sees the
// whole group together instead of straddling pass boundaries.
func TestPendingQueueCoalescesGangMembers(t *testing.T) {
	srv, c := newQueueCache(t)
	for _, s := range []struct{ name, group string }{
		{"g1-a", "g1"}, {"solo-1", ""}, {"g1-b", "g1"}, {"solo-2", ""},
		{"g2-a", "g2"}, {"g1-c", "g1"}, {"g2-b", "g2"},
	} {
		createQueued(t, srv, memGangPod(s.name, s.group, 3, resource.MiB, 0))
	}
	if got, want := fmt.Sprint(queueOrder(c, "s")), "[g1-a g1-b g1-c solo-1 solo-2 g2-a g2-b]"; got != want {
		t.Fatalf("coalesced order = %v, want %v", got, want)
	}
}

// TestGangCoalescingStaysWithinPriorityTier: gang coalescing never
// crosses tiers. Co-members of one group split across two priorities
// coalesce independently inside each tier — the high tier's first
// member pulls only its same-tier peers forward, and the low-tier
// members keep their place behind every higher-priority pod instead of
// being hoisted up to join the gang.
func TestGangCoalescingStaysWithinPriorityTier(t *testing.T) {
	srv, c := newQueueCache(t)
	push := func(name string, prio int32, group string) {
		createQueued(t, srv, memGangPod(name, group, 2, resource.MiB, prio))
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
	if got := queueOrder(c, "s"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cross-tier gang order = %v, want %v", got, want)
	}

	// Taking one tier's members out must not disturb the other tier's
	// coalescing (the group indexes are per-bucket).
	for _, name := range []string{"g-hi-1", "solo-lo-1"} {
		if err := srv.MarkFailed(name, "gone"); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{
		"solo-hi-1", "solo-hi-2", "g-hi-2",
		"g-lo-1", "g-lo-2", "solo-lo-2",
	}
	if got := queueOrder(c, "s"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after removals = %v, want %v", got, want)
	}

	// Draining the high tier entirely leaves the low tier's gang intact
	// and adjacent.
	for _, name := range []string{"solo-hi-1", "solo-hi-2", "g-hi-2"} {
		if err := srv.MarkFailed(name, "gone"); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{"g-lo-1", "g-lo-2", "solo-lo-2"}
	if got := queueOrder(c, "s"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after draining the high tier = %v, want %v", got, want)
	}
}

// TestPendingPullConcurrentDrain: two Concurrent fleet members drain
// their queues over an asynchronous watch, side by side, each pass binding
// its budget while the PodBound events of its earlier passes may still be
// on their way to the cache. Every pod is attempted exactly once — a pass
// takes what the server accepted out of its queue itself, so the next pass
// never re-attempts a pod whose event lags — and the backlog is bound to
// the last pod.
func TestPendingPullConcurrentDrain(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAsyncWatch())
	defer srv.Close()
	big := resource.List{resource.Memory: 1 << 50}
	if err := srv.RegisterNode(&api.Node{Name: "n", Capacity: big, Allocatable: big, Ready: true}); err != nil {
		t.Fatal(err)
	}
	ss, err := NewSharded(clk, srv, nil, Config{Name: "drain", Policy: Binpack{}, MaxBindsPerPass: 100}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	const backlog = 3000
	for i := 0; i < backlog; i++ {
		p := memPod(fmt.Sprintf("pod-%04d", i), resource.MiB, int32(i%3))
		if i%50 < 4 { // a few gangs, so some tiers are pulled whole
			p.Spec.PodGroup = fmt.Sprintf("gang-%d", i/50)
		}
		ss.Assign(p)
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	srv.QuiesceWatch()
	for round := 0; srv.PendingCount() > 0; round++ {
		if round > 10*backlog/100 {
			t.Fatalf("backlog not drained after %d rounds: %d pending", round, srv.PendingCount())
		}
		ss.RunRound()
	}
	if bs := srv.BindStats(); bs.Bound != backlog || bs.Attempts != backlog {
		t.Fatalf("bound %d in %d attempts, want the %d backlog bound once each", bs.Bound, bs.Attempts, backlog)
	}
	if st := ss.Stats(); st.Bound != backlog || st.Conflicts != 0 {
		t.Fatalf("fleet stats %+v, want %d bound and no conflict", st, backlog)
	}
}
