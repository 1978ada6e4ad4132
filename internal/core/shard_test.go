package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/golden"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// shardPodName returns a pod name (derived from base) that hashes onto
// the wanted shard of an n-way split, so tests can stage deterministic
// cross-shard races.
func shardPodName(t *testing.T, base string, want, n int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("%s-%d", base, i)
		if ShardIndex(name, n) == want {
			return name
		}
	}
	t.Fatalf("no name hashing onto shard %d/%d", want, n)
	return ""
}

// TestShardIndexStableAndBalanced pins the hash sharding: deterministic,
// in range, and no shard starves on realistic name sets.
func TestShardIndexStableAndBalanced(t *testing.T) {
	const n = 4
	counts := make([]int, n)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("job-%06d", i)
		idx := ShardIndex(name, n)
		if idx != ShardIndex(name, n) {
			t.Fatalf("ShardIndex(%q) unstable", name)
		}
		if idx < 0 || idx >= n {
			t.Fatalf("ShardIndex(%q) = %d out of range", name, idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < 150 || c > 350 {
			t.Fatalf("shard %d serves %d/1000 pods — hash badly skewed: %v", i, c, counts)
		}
	}
	if got := ShardIndex("anything", 1); got != 0 {
		t.Fatalf("single shard index = %d", got)
	}
}

// TestShardedConflictRetry stages the canonical optimistic-concurrency
// race deterministically: two round-robin members plan against the same
// round-start view of one strict-admission node that can hold only one of
// their pods. The member that binds second must lose with a recorded
// conflict, its pod must stay pending, and the retry must succeed on the
// next round once capacity frees — bind rejection as a first-class
// outcome, not an error.
func TestShardedConflictRetry(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
	alloc := resource.List{resource.Memory: 8 * resource.GiB, resource.CPU: 8000}
	if err := srv.RegisterNode(&api.Node{
		Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true,
	}); err != nil {
		t.Fatal(err)
	}

	ss, err := NewSharded(clk, srv, nil, Config{Name: "ms", Policy: Binpack{}}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	nameA := shardPodName(t, "pod-a", 0, 2)
	nameB := shardPodName(t, "pod-b", 1, 2)
	for _, name := range []string{nameA, nameB} {
		pod := memJob(name, 5*resource.GiB, resource.GiB, time.Hour)
		ss.Assign(pod)
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
	}

	if bound := ss.RunRound(); bound != 1 {
		t.Fatalf("round 1 bound %d pods, want 1 (node holds only one)", bound)
	}
	stats := []Stats{ss.members[0].Stats(), ss.members[1].Stats()}
	if stats[0].Bound != 1 || stats[0].Conflicts != 0 {
		t.Fatalf("member 0 stats = %+v, want the clean winner", stats[0])
	}
	if stats[1].Bound != 0 || stats[1].Conflicts != 1 {
		t.Fatalf("member 1 stats = %+v, want one conflict, nothing bound", stats[1])
	}
	pb, _ := srv.GetPod(nameB)
	if pb.Status.Phase != api.PodPending || pb.Spec.NodeName != "" {
		t.Fatalf("conflicted pod = %s on %q, want Pending unbound", pb.Status.Phase, pb.Spec.NodeName)
	}
	if got := srv.BindStats().RejectedCapacity; got != 1 {
		t.Fatalf("server rejected-capacity count = %d, want 1", got)
	}

	// Losing the race is a retry, not a failure: once the winner's pod
	// finishes, the loser's next round binds from a refreshed cache.
	if err := srv.MarkSucceeded(nameA); err != nil {
		t.Fatal(err)
	}
	if bound := ss.RunRound(); bound != 1 {
		t.Fatalf("retry round bound %d pods, want 1", bound)
	}
	pb, _ = srv.GetPod(nameB)
	if pb.Spec.NodeName != "n1" {
		t.Fatalf("conflicted pod did not retry onto n1: %q", pb.Spec.NodeName)
	}
	if got := ss.members[1].Stats(); got.Conflicts != 1 || got.Bound != 1 {
		t.Fatalf("member 1 after retry = %+v", got)
	}
}

// TestShardedCacheMatchesBuildViewN2 extends the cache≡rebuild guard to
// two round-robin schedulers over one API server: random churn
// interleaved with sharded rounds, and at every checkpoint a fresh view
// of each member's event-driven cache must equal that member's oracle,
// the from-scratch BuildView.
func TestShardedCacheMatchesBuildViewN2(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)

		nodeNames := make([]string, 3+rng.Intn(3))
		for i := range nodeNames {
			nodeNames[i] = fmt.Sprintf("n%02d", i)
			alloc := resource.List{
				resource.Memory: int64(8+rng.Intn(56)) * resource.GiB,
				resource.CPU:    8000,
			}
			if rng.Intn(2) == 0 {
				alloc[resource.EPCPages] = int64(1000 + rng.Intn(30000))
			}
			if err := srv.RegisterNode(&api.Node{
				Name: nodeNames[i], Capacity: alloc, Allocatable: alloc, Ready: true,
			}); err != nil {
				t.Fatal(err)
			}
		}

		ss, err := NewSharded(clk, srv, db, Config{
			Name: "ms", Policy: Binpack{}, UseMetrics: true,
			Window: time.Duration(5+rng.Intn(20)) * time.Second,
		}, 2, false)
		if err != nil {
			t.Fatal(err)
		}

		var pods []string
		makePod := func() *api.Pod {
			name := fmt.Sprintf("p%03d", len(pods))
			pods = append(pods, name)
			req := resource.List{resource.Memory: int64(rng.Intn(8)) * resource.GiB}
			if rng.Intn(2) == 0 {
				req[resource.EPCPages] = int64(rng.Intn(2000))
			}
			pod := &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					Priority: int32(rng.Intn(3)),
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: req},
					}},
				},
			}
			ss.Assign(pod)
			return pod
		}
		for i := 0; i < 5; i++ {
			if err := srv.CreatePod(makePod()); err != nil {
				t.Fatal(err)
			}
		}

		for op := 0; op < 100; op++ {
			switch r := rng.Intn(100); {
			case r < 20:
				_ = srv.CreatePod(makePod())
			case r < 35: // bind by hand (may be refused by admission — fine)
				if queued := srv.PendingPods(""); len(queued) > 0 {
					p := queued[rng.Intn(len(queued))]
					_ = srv.Bind(p.Name, nodeNames[rng.Intn(len(nodeNames))])
				}
			case r < 45:
				_ = srv.MarkRunning(pods[rng.Intn(len(pods))])
			case r < 53:
				_ = srv.MarkSucceeded(pods[rng.Intn(len(pods))])
			case r < 58:
				_ = srv.Preempt(pods[rng.Intn(len(pods))], "chaos")
			case r < 65: // node churn
				n, err := srv.GetNode(nodeNames[rng.Intn(len(nodeNames))])
				if err != nil {
					break
				}
				n = n.Clone()
				if rng.Intn(2) == 0 {
					n.Ready = !n.Ready
				} else {
					n.Unschedulable = !n.Unschedulable
				}
				_ = srv.UpdateNode(n)
			case r < 80: // metric churn
				measurement := monitor.MeasurementMemory
				if rng.Intn(2) == 0 {
					measurement = monitor.MeasurementEPC
				}
				db.Write(measurement, tsdb.Tags{
					monitor.TagPod:  fmt.Sprintf("p%03d", rng.Intn(len(pods)+2)),
					monitor.TagNode: nodeNames[rng.Intn(len(nodeNames))],
				}, float64(int64(rng.Intn(6))*resource.GiB),
					clk.Now().Add(-time.Duration(rng.Intn(30))*time.Second))
			case r < 90:
				ss.RunRound()
			default:
				clk.Advance(time.Duration(rng.Intn(10000)) * time.Millisecond)
			}
			if op%9 == 0 {
				for i, m := range ss.Members() {
					viewsEqual(t, freshView(m.cache), oracleView(m, db),
						fmt.Sprintf("trial %d op %d member %d", trial, op, i))
				}
			}
		}
		clk.Advance(2 * time.Minute)
		for i, m := range ss.Members() {
			viewsEqual(t, freshView(m.cache), oracleView(m, db),
				fmt.Sprintf("trial %d final member %d", trial, i))
		}
		ss.Close()
		db.Close()
	}
}

// shardedTestbed wires a full mini-cluster (kubelets + monitoring) under
// a sharded scheduler fleet.
func shardedTestbed(t *testing.T, shards int, concurrent bool, admission apiserver.Admission) (*clock.Sim, *apiserver.Server, *ShardedSchedulers) {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAdmission(admission))
	db, _ := startNodes(t, clk, srv, 2, 2, true)

	ss, err := NewSharded(clk, srv, db, Config{
		Name: "ms", Policy: Binpack{}, UseMetrics: true,
	}, shards, concurrent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Close)
	return clk, srv, ss
}

// TestShardedDeterminismN2 runs the same seeded workload twice through a
// two-member round-robin fleet on the simulation clock and requires
// bit-identical watch event sequences — the sim-clock determinism
// property extended to N > 1.
func TestShardedDeterminismN2(t *testing.T) {
	run := func() []string {
		clk, srv, ss := shardedTestbed(t, 2, false, apiserver.AdmitGuarded)
		var seq []string
		unsub := subscribeEach(srv, func(ev apiserver.WatchEvent) {
			entry := fmt.Sprintf("rev=%d type=%d", ev.Rev, ev.Type)
			if ev.Pod != nil {
				entry += fmt.Sprintf(" pod=%s node=%s phase=%s sched=%s",
					ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase, ev.Pod.Spec.SchedulerName)
			}
			seq = append(seq, entry)
		})
		defer unsub()
		defer clock.Periodic(clk, 5*time.Second, func() { ss.RunRound() })()

		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 30; i++ {
			var pod *api.Pod
			if rng.Intn(2) == 0 {
				pod = epcJob(fmt.Sprintf("job-%02d", i), int64(200+rng.Intn(4000)), resource.MiB, 30*time.Second)
			} else {
				pod = memJob(fmt.Sprintf("job-%02d", i), int64(1+rng.Intn(4))*resource.GiB, resource.GiB, 30*time.Second)
			}
			ss.Assign(pod)
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Duration(rng.Intn(8)) * time.Second)
		}
		clk.Advance(5 * time.Minute)
		if !srv.AllTerminal() {
			t.Fatal("sharded workload did not drain")
		}
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\nrun1: %s\nrun2: %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	// Run-to-run equality cannot see a change that moves both runs the
	// same way; the literal digest pins the stream across commits.
	if got, want := golden.StreamDigest(a), "00e80123e7b7e6f5"; got != want {
		t.Fatalf("event stream digest = %s, want %s (%d events): the sharded schedule changed", got, want, len(a))
	}
}

// TestShardedConcurrentRoundsSafe hammers the concurrent mode (real
// goroutines racing Bind) and asserts safety: every pod binds exactly
// once, no node's committed requests ever exceed its capacity, and the
// fleet drains the backlog. Conflict counts are nondeterministic here —
// that is the mode's nature; safety is not. Run under -race in CI, where
// the rows also prove the members share no mutable policy state: every
// member places through the policy values the whole fleet resolved from
// one Config, and the last row's spread reads each member's own view
// for every candidate it rates.
func TestShardedConcurrentRoundsSafe(t *testing.T) {
	// A backlog long enough that the members' passes genuinely overlap: on
	// a short one the server's lock handoffs order most of their accesses
	// and the race detector has nothing to report.
	const nodes, podCount = 4, 240
	alloc := resource.List{
		resource.Memory:   64 * resource.GiB,
		resource.CPU:      8000,
		resource.EPCPages: 23936,
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// res is the resource the capacity assertions follow, qty each
		// pod's request of it.
		res resource.Name
		qty int64
		pod func(name string, qty int64) *api.Pod
	}{
		{
			name: "sgx pods, built-in policy",
			cfg:  Config{Policy: Binpack{}},
			res:  resource.EPCPages,
			qty:  300,
			pod: func(name string, pages int64) *api.Pod {
				return epcJob(name, pages, resource.MiB, time.Hour)
			},
		},
		{
			name: "standard classed pods, one class table per member",
			cfg:  Config{Policy: Binpack{}},
			res:  resource.Memory,
			qty:  resource.GiB / 2,
			pod: func(name string, mem int64) *api.Pod {
				class := api.ClassBatch
				if name[len(name)-1]%2 == 0 {
					class = api.ClassBestEffort
				}
				return classedPod(name, class, 0, mem, time.Hour)
			},
		},
		{
			name: "standard pods, spread",
			cfg:  Config{Policy: Spread{}},
			res:  resource.Memory,
			qty:  resource.GiB / 2,
			pod: func(name string, mem int64) *api.Pod {
				return memJob(name, mem, mem, time.Hour)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewSim()
			srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
			for i := 0; i < nodes; i++ {
				if err := srv.RegisterNode(&api.Node{
					Name: fmt.Sprintf("sgx-%d", i), Capacity: alloc, Allocatable: alloc, Ready: true,
				}); err != nil {
					t.Fatal(err)
				}
			}
			cfg := tc.cfg
			cfg.Name, cfg.MaxBindsPerPass = "ms", 8
			ss, err := NewSharded(clk, srv, nil, cfg, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()

			for i := 0; i < podCount; i++ {
				pod := tc.pod(fmt.Sprintf("job-%03d", i), tc.qty)
				ss.Assign(pod)
				if err := srv.CreatePod(pod); err != nil {
					t.Fatal(err)
				}
			}

			for round := 0; srv.PendingCount() > 0; round++ {
				if round > 200 {
					t.Fatalf("backlog not drained after %d rounds: %d pending", round, srv.PendingCount())
				}
				ss.RunRound()
			}

			for i := 0; i < podCount; i++ {
				p, err := srv.GetPod(fmt.Sprintf("job-%03d", i))
				if err != nil {
					t.Fatal(err)
				}
				if p.Spec.NodeName == "" {
					t.Fatalf("pod %s drained without binding", p.Name)
				}
			}
			var total int64
			for i := 0; i < nodes; i++ {
				name := fmt.Sprintf("sgx-%d", i)
				com := srv.Committed(name).Get(tc.res)
				if com > alloc.Get(tc.res) {
					t.Fatalf("node %s overcommitted: %d %s", name, com, tc.res)
				}
				total += com
			}
			if total != podCount*tc.qty {
				t.Fatalf("total committed %s = %d, want %d", tc.res, total, podCount*tc.qty)
			}
			if st := ss.Stats(); st.Bound != podCount {
				t.Fatalf("fleet stats = %+v, want %d bound", st, podCount)
			}
		})
	}
}
