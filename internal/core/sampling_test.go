package core

import (
	"fmt"
	"math/rand"
	"sort"
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

// TestNumFeasibleNodesToFind pins the adaptive sample-size policy:
// full scan at paper scale, kube-style shrinking percentage above it,
// and the min-feasible floor.
func TestNumFeasibleNodesToFind(t *testing.T) {
	const floor = DefaultMinFeasibleNodesToFind
	cases := []struct {
		minFeasible, nodes, want int
	}{
		{floor, 20, 20},       // paper-scale cluster: always full scan
		{floor, 100, 100},     // at the threshold: still full
		{floor, 500, 230},     // adaptive: (50 - 500/125)% = 46% of 500
		{floor, 1000, 420},    // adaptive: (50 - 1000/125)% = 42% of 1000
		{floor, 5000, 500},    // adaptive: max(5, 50-40)% = 10% of 5000
		{floor, 100000, 5000}, // deep in the 5% floor
		{floor, 101, 100},     // floor: 50% of 101 = 50 < minFeasible 100
		{300, 500, 300},       // custom floor
		{300, 200, 200},       // floor clamped to cluster size
		{5000, 5000, 5000},    // a floor at the node count: full scan
	}
	for _, c := range cases {
		if got := numFeasibleNodesToFind(c.minFeasible, c.nodes); got != c.want {
			t.Errorf("numFeasibleNodesToFind(%d, %d) = %d, want %d",
				c.minFeasible, c.nodes, got, c.want)
		}
	}
}

// TestIndexedSamplingMatchesFullScan is the tentpole's property test. It
// drives randomized cluster churn through the API server, keeps one
// incremental view synced, and at every checkpoint requires:
//
//  1. the pooled incremental view ≡ the oracle's from-scratch BuildView
//     (the copy-on-write sync loses nothing);
//  2. an exhaustive index walk (limit ≥ cluster) finds exactly the nodes
//     the full scan's §IV fit accepts — the index's bucket-skip provably
//     never hides a feasible node;
//  3. a limited walk from an arbitrary rotation offset finds only
//     full-scan-feasible nodes, exactly min(limit, feasible) of them,
//     with no duplicates;
//  4. from offsets that start just before a bucket boundary and just
//     before the wrap, the walk's candidates, in order, and its visited
//     count equal ringWalk's.
func TestIndexedSamplingMatchesFullScan(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)

		nodeNames := make([]string, 4+rng.Intn(12))
		for i := range nodeNames {
			nodeNames[i] = fmt.Sprintf("n%02d", i)
			alloc := resource.List{
				resource.Memory: int64(1+rng.Intn(64)) * resource.GiB,
				resource.CPU:    8000,
			}
			if rng.Intn(2) == 0 {
				alloc[resource.EPCPages] = int64(500 + rng.Intn(40000))
			}
			if err := srv.RegisterNode(&api.Node{
				Name: nodeNames[i], Capacity: alloc, Allocatable: alloc, Ready: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(clk, srv, db, Config{
			Name: "s", Policy: Binpack{}, UseMetrics: true,
			Window: 25 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		view := s.cache.NewView()

		var pods []string
		makePod := func() *api.Pod {
			name := fmt.Sprintf("p%03d", len(pods))
			pods = append(pods, name)
			req := resource.List{resource.Memory: int64(rng.Intn(16)) * resource.GiB}
			if rng.Intn(3) == 0 {
				req[resource.EPCPages] = int64(rng.Intn(8000))
			}
			return &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					SchedulerName: "s",
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: req},
					}},
				},
			}
		}
		probe := func(ctx string) {
			// Probe pods sweep request magnitudes across bucket boundaries,
			// including zero and exact powers of two.
			for k := 0; k < 4; k++ {
				req := resource.List{}
				switch rng.Intn(4) {
				case 0:
					req[resource.Memory] = int64(rng.Intn(80)) * resource.GiB
				case 1:
					req[resource.Memory] = int64(1) << uint(20+rng.Intn(17))
				case 2:
					req[resource.Memory] = int64(rng.Intn(4)) * resource.GiB
					req[resource.EPCPages] = int64(rng.Intn(50000))
				case 3:
					req[resource.EPCPages] = int64(1) << uint(rng.Intn(16))
				}
				pod := &api.Pod{Name: "probe", Spec: api.PodSpec{Containers: []api.Container{{
					Name: "main", Resources: api.Requirements{Requests: req},
				}}}}
				info := newPodInfo(pod)
				full := map[string]bool{}
				for _, n := range view.Nodes {
					if n.Fits(info.Req) {
						full[n.Name] = true
					}
				}
				offset := rng.Intn(1000)
				// Exhaustive walk: exact set equality with the full scan.
				got, _ := view.sampleFeasible(info, len(view.Nodes)+1, offset, nil)
				if len(got) != len(full) {
					t.Fatalf("%s: req=%v exhaustive walk found %d nodes, full scan %d", ctx, req, len(got), len(full))
				}
				for _, n := range got {
					if !full[n.Name] {
						t.Fatalf("%s: req=%v index selected %s which the full scan rejects", ctx, req, n.Name)
					}
				}
				// Limited walk: subset, exact count, no duplicates.
				limit := 1 + rng.Intn(3)
				sampled, _ := view.sampleFeasible(info, limit, offset, nil)
				want := limit
				if len(full) < want {
					want = len(full)
				}
				if len(sampled) != want {
					t.Fatalf("%s: req=%v limit=%d found %d candidates, want %d (feasible=%d)",
						ctx, req, limit, len(sampled), want, len(full))
				}
				seen := map[string]bool{}
				for _, n := range sampled {
					if !full[n.Name] {
						t.Fatalf("%s: req=%v sampled %s which the full scan rejects", ctx, req, n.Name)
					}
					if seen[n.Name] {
						t.Fatalf("%s: req=%v sampled %s twice", ctx, req, n.Name)
					}
					seen[n.Name] = true
				}
				// Walk order against the reference, at limits 1, 2 and
				// exhaustive: from the random offset, and from each
				// bucket's last node, so the walk crosses a bucket
				// boundary (from the last bucket, the wrap).
				ring, bounds := eligibleRing(view, info)
				offsets := []int{offset}
				for _, b := range bounds {
					offsets = append(offsets, b-1)
				}
				for _, off := range offsets {
					for _, lim := range []int{1, 2, len(ring) + 1} {
						want, wantVisited := ringWalk(ring, info, lim, off)
						got, visited := view.sampleFeasible(info, lim, off, nil)
						if visited != wantVisited || len(got) != len(want) {
							t.Fatalf("%s: req=%v limit=%d offset=%d: walk found %d in %d visits, reference %d in %d",
								ctx, req, lim, off, len(got), visited, len(want), wantVisited)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: req=%v limit=%d offset=%d: candidate %d is %s, reference %s",
									ctx, req, lim, off, i, got[i].Name, want[i].Name)
							}
						}
					}
				}
			}
		}

		for op := 0; op < 120; op++ {
			switch r := rng.Intn(100); {
			case r < 25:
				_ = srv.CreatePod(makePod())
			case r < 45:
				if queued := srv.PendingPods(""); len(queued) > 0 {
					p := queued[rng.Intn(len(queued))]
					_ = srv.Bind(p.Name, nodeNames[rng.Intn(len(nodeNames))])
				}
			case r < 55:
				if len(pods) > 0 {
					_ = srv.MarkRunning(pods[rng.Intn(len(pods))])
				}
			case r < 62:
				if len(pods) > 0 {
					_ = srv.MarkSucceeded(pods[rng.Intn(len(pods))])
				}
			case r < 68:
				if len(pods) > 0 {
					_ = srv.Preempt(pods[rng.Intn(len(pods))], "chaos")
				}
			case r < 76:
				n, err := srv.GetNode(nodeNames[rng.Intn(len(nodeNames))])
				if err != nil {
					break
				}
				n = n.Clone()
				switch rng.Intn(3) {
				case 0:
					n.Ready = !n.Ready
				case 1:
					n.Unschedulable = !n.Unschedulable
				case 2:
					n.Allocatable[resource.Memory] += resource.GiB
				}
				_ = srv.UpdateNode(n)
			case r < 88:
				if len(pods) > 0 {
					db.Write(monitor.MeasurementMemory,
						tsdb.Tags{monitor.TagPod: pods[rng.Intn(len(pods))], monitor.TagNode: nodeNames[rng.Intn(len(nodeNames))]},
						float64(int64(rng.Intn(4))*resource.GiB), clk.Now())
				}
			default:
				clk.Advance(time.Duration(rng.Intn(12000)) * time.Millisecond)
			}
			if op%5 == 0 {
				s.cache.SyncView(view)
				viewsEqual(t, view, oracleView(s, db), fmt.Sprintf("trial %d op %d", trial, op))
				probe(fmt.Sprintf("trial %d op %d", trial, op))
			}
		}
		clk.Advance(2 * time.Minute)
		s.cache.SyncView(view)
		viewsEqual(t, view, oracleView(s, db), fmt.Sprintf("trial %d final", trial))
		probe(fmt.Sprintf("trial %d final", trial))
		s.Close()
	}
}

// eligibleRing flattens view.eligible's buckets, in walk order, into one
// ring and returns it with the ring position just past each bucket.
func eligibleRing(view *ClusterView, info *PodInfo) (ring []*NodeView, bounds []int) {
	view.eligible(info)
	for _, b := range view.seqScratch {
		ring = append(ring, b...)
		bounds = append(bounds, len(ring))
	}
	return ring, bounds
}

// ringWalk is sampleFeasible's naive reference: read the ring from
// offset % len(ring), one node at a time, until limit nodes fit or every
// node was visited.
func ringWalk(ring []*NodeView, info *PodInfo, limit, offset int) (found []*NodeView, visited int) {
	for visited < len(ring) && len(found) < limit {
		n := ring[(offset%len(ring)+visited)%len(ring)]
		visited++
		if n.Fits(info.Req) {
			found = append(found, n)
		}
	}
	return found, visited
}

// TestSyncViewCommitConverges pins the optimistic-commit contract: a
// pass's Commit mutates the incremental view ahead of the authoritative
// events, and once those events land the next sync replaces the node
// with cache truth — the view converges instead of double-charging.
func TestSyncViewCommitConverges(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	alloc := resource.List{resource.Memory: 16 * resource.GiB, resource.EPCPages: 1000}
	if err := srv.RegisterNode(&api.Node{Name: "n1", Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
		t.Fatal(err)
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	view := s.cache.NewView()
	s.cache.SyncView(view)
	pod := &api.Pod{Name: "p1", Spec: api.PodSpec{SchedulerName: "s", Containers: []api.Container{{
		Name: "main", Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.GiB, resource.EPCPages: 100}},
	}}}}
	if err := srv.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	view.Commit("n1", pod.TotalRequests()) // optimistic, ahead of the bind
	if err := srv.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	s.cache.SyncView(view)
	viewsEqual(t, view, oracleView(s, nil), "post-bind sync")
	n := view.Node("n1")
	if n.Used.Get(resource.Memory) != resource.GiB || n.FreeDevices != 900 {
		t.Fatalf("converged view wrong: used=%v free=%d", n.Used, n.FreeDevices)
	}
}

// TestSampledSchedulingDeterministic runs an identical above-threshold
// (sampling-engaged) sim-clock scenario twice and requires bit-identical
// bind histories — the reproducibility half of the tentpole's acceptance
// criteria. It also proves sampling actually engaged (Stats.Sampled).
func TestSampledSchedulingDeterministic(t *testing.T) {
	run := func() ([]string, Stats) {
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		for i := 0; i < 150; i++ {
			alloc := resource.List{
				resource.Memory: int64(2+i%7) * resource.GiB,
				resource.CPU:    8000,
			}
			if i%4 == 0 {
				alloc[resource.EPCPages] = int64(2000 + 500*(i%5))
			}
			if err := srv.RegisterNode(&api.Node{
				Name: fmt.Sprintf("node-%03d", i), Capacity: alloc, Allocatable: alloc, Ready: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(clk, srv, nil, Config{
			Name: "s", Policy: Binpack{}, MaxBindsPerPass: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		unsub := subscribeEach(srv, func(ev apiserver.WatchEvent) {
			if ev.Type == apiserver.PodBound {
				seq = append(seq, fmt.Sprintf("rev=%d pod=%s node=%s", ev.Rev, ev.Pod.Name, ev.Pod.Spec.NodeName))
			}
		})
		defer unsub()
		rng := rand.New(rand.NewSource(7777))
		for i := 0; i < 300; i++ {
			req := resource.List{resource.Memory: int64(1+rng.Intn(3)) * resource.GiB}
			if rng.Intn(5) == 0 {
				req[resource.EPCPages] = int64(200 + rng.Intn(1500))
			}
			pod := &api.Pod{Name: fmt.Sprintf("pod-%03d", i), Spec: api.PodSpec{
				SchedulerName: "s",
				Containers:    []api.Container{{Name: "main", Resources: api.Requirements{Requests: req}}},
			}}
			if err := srv.CreatePod(pod); err != nil {
				t.Fatal(err)
			}
		}
		stopPass := clock.Periodic(clk, time.Second, func() { s.ScheduleOnce() })
		clk.Advance(40 * time.Second)
		st := s.Stats()
		stopPass()
		s.Close()
		return seq, st
	}
	seqA, statsA := run()
	seqB, statsB := run()
	if statsA.Sampled == 0 {
		t.Fatal("sampling never engaged at 150 nodes — the determinism check is vacuous")
	}
	if statsA.Bound == 0 {
		t.Fatal("no pods bound")
	}
	if statsA != statsB {
		t.Fatalf("stats differ across runs:\nrun1: %+v\nrun2: %+v", statsA, statsB)
	}
	if len(seqA) != len(seqB) {
		t.Fatalf("bind counts differ: %d vs %d", len(seqA), len(seqB))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("bind %d differs:\nrun1: %s\nrun2: %s", i, seqA[i], seqB[i])
		}
	}
	// Pinned across commits, not just run-to-run.
	if got, want := golden.StreamDigest(seqA), "efe934a74fd5a1ea"; got != want {
		t.Fatalf("bind history digest = %s, want %s (%d binds): a sampled placement changed", got, want, len(seqA))
	}
}

// TestSampledRotationCovers proves the rotating offset's fairness
// invariant: across consecutive searches the walk does not restart at
// the same node — every eligible node is eventually visited even though
// each search stops after one candidate.
func TestSampledRotationCovers(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	const nNodes = 16
	for i := 0; i < nNodes; i++ {
		alloc := resource.List{resource.Memory: 8 * resource.GiB, resource.CPU: 8000}
		if err := srv.RegisterNode(&api.Node{
			Name: fmt.Sprintf("node-%02d", i), Capacity: alloc, Allocatable: alloc, Ready: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	view := s.cache.NewView()
	s.cache.SyncView(view)

	info := newPodInfo(&api.Pod{Spec: api.PodSpec{Containers: []api.Container{{
		Name: "main", Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.GiB}},
	}}}})
	seen := map[string]bool{}
	offset := 0
	for i := 0; i < nNodes; i++ {
		got, visited := view.sampleFeasible(info, 1, offset, nil)
		if len(got) != 1 {
			t.Fatalf("search %d found %d candidates, want 1", i, len(got))
		}
		seen[got[0].Name] = true
		offset += visited
	}
	if len(seen) != nNodes {
		var missing []string
		for i := 0; i < nNodes; i++ {
			if name := fmt.Sprintf("node-%02d", i); !seen[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		t.Fatalf("rotation covered %d/%d nodes; never visited: %v", len(seen), nNodes, missing)
	}
}
