package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestCacheResyncAfterOverflowMatchesBuildView is the broker-overflow
// property test: an async-watch server with a tiny ring, a cache pinned
// mid-delivery while bursts of mutations wrap the ring repeatedly —
// forcing the fell-off-the-ring resync — must, after every burst, resync to a
// state identical to the oracle's from-scratch BuildView. A second subscriber
// records every delivered resource version and proves no event is ever
// delivered twice or out of order, across resyncs included.
func TestCacheResyncAfterOverflowMatchesBuildView(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		clk := clock.NewSim()
		srv := apiserver.New(clk,
			apiserver.WithAsyncWatch(),
			apiserver.WithWatchCapacity(8),
			apiserver.WithWatchBatch(2),
		)
		nodeNames := make([]string, 4)
		for i := range nodeNames {
			nodeNames[i] = fmt.Sprintf("n%02d", i)
			alloc := resource.List{
				resource.Memory:   int64(16+rng.Intn(48)) * resource.GiB,
				resource.CPU:      8000,
				resource.EPCPages: int64(1000 + rng.Intn(20000)),
			}
			if err := srv.RegisterNode(&api.Node{
				Name: nodeNames[i], Capacity: alloc, Allocatable: alloc, Ready: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
		if err != nil {
			t.Fatal(err)
		}

		// Ordering witness: all delivered revs, resyncs included, must be
		// strictly increasing — a resync may skip revs but never replays
		// or reorders them.
		var witMu sync.Mutex
		var witnessRevs []int64
		witnessUnsub := srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
			witMu.Lock()
			for _, ev := range evs {
				witnessRevs = append(witnessRevs, ev.Rev)
			}
			witMu.Unlock()
		}, func(snap apiserver.Snapshot) {
			witMu.Lock()
			witnessRevs = append(witnessRevs, snap.Rev)
			witMu.Unlock()
		})

		var pods []string
		makePod := func() *api.Pod {
			name := fmt.Sprintf("p%03d", len(pods))
			pods = append(pods, name)
			req := resource.List{resource.Memory: int64(rng.Intn(4)) * resource.GiB}
			if rng.Intn(2) == 0 {
				req[resource.EPCPages] = int64(rng.Intn(1500))
			}
			return &api.Pod{
				Name: name,
				Spec: api.PodSpec{
					SchedulerName: "s",
					Priority:      int32(rng.Intn(3)),
					Containers: []api.Container{{
						Name:      "main",
						Resources: api.Requirements{Requests: req},
					}},
				},
			}
		}

		cache := s.cache
		for round := 0; round < 8; round++ {
			// Pin the cache: its pump blocks inside ApplyAll on c.mu (at
			// most one batch deep) while the burst below wraps the
			// 8-entry ring many times over — guaranteeing the cursor
			// falls off and the resync path must run.
			cache.mu.Lock()
			for op := 0; op < 60; op++ {
				switch r := rng.Intn(100); {
				case r < 35:
					_ = srv.CreatePod(makePod())
				case r < 65:
					if queued := srv.PendingPods(""); len(queued) > 0 {
						p := queued[rng.Intn(len(queued))]
						_ = srv.Bind(p.Name, nodeNames[rng.Intn(len(nodeNames))])
					}
				case r < 72:
					if len(pods) > 0 {
						_ = srv.MarkRunning(pods[rng.Intn(len(pods))])
					}
				case r < 80:
					if len(pods) > 0 {
						_ = srv.MarkSucceeded(pods[rng.Intn(len(pods))])
					}
				case r < 85:
					if len(pods) > 0 {
						_ = srv.Preempt(pods[rng.Intn(len(pods))], "chaos")
					}
				case r < 90:
					if len(pods) > 0 {
						_ = srv.Evict(pods[rng.Intn(len(pods))], "chaos")
					}
				default:
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
						n.Allocatable[resource.EPCPages] += int64(rng.Intn(300))
					}
					_ = srv.UpdateNode(n)
				}
			}
			cache.mu.Unlock()
			srv.QuiesceWatch()
			viewsEqual(t, freshView(cache), oracleView(s, nil),
				fmt.Sprintf("trial %d round %d (post-resync)", trial, round))
		}

		stats := srv.WatchStats()
		if len(stats.PerSubscriber) == 0 || stats.PerSubscriber[0].Resyncs == 0 {
			t.Fatalf("trial %d: the cache never hit the overflow/resync path (stats %+v) — the test lost its teeth", trial, stats)
		}
		witMu.Lock()
		for i := 1; i < len(witnessRevs); i++ {
			if witnessRevs[i] <= witnessRevs[i-1] {
				t.Fatalf("trial %d: rev %d observed after %d — event delivered twice or out of order",
					trial, witnessRevs[i], witnessRevs[i-1])
			}
		}
		witMu.Unlock()

		witnessUnsub()
		s.Close()
		srv.Close()
	}
}

// TestAsyncCacheConvergesWithoutOverflow: with a default-capacity ring,
// an async cache simply lags and catches up — after quiescing it is
// indistinguishable from a from-scratch build.
func TestAsyncCacheConvergesWithoutOverflow(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAsyncWatch())
	alloc := resource.List{resource.Memory: 64 * resource.GiB, resource.CPU: 8000, resource.EPCPages: 30000}
	for i := 0; i < 4; i++ {
		if err := srv.RegisterNode(&api.Node{
			Name: fmt.Sprintf("n%d", i), Capacity: alloc, Allocatable: alloc, Ready: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(clk, srv, nil, Config{Name: "s", Policy: Binpack{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer srv.Close()

	for i := 0; i < 500; i++ {
		pod := &api.Pod{
			Name: fmt.Sprintf("p%04d", i),
			Spec: api.PodSpec{
				SchedulerName: "s",
				Containers: []api.Container{{
					Name:      "main",
					Resources: api.Requirements{Requests: resource.List{resource.Memory: resource.GiB, resource.EPCPages: 10}},
				}},
			},
		}
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(pod.Name, fmt.Sprintf("n%d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	srv.QuiesceWatch()
	viewsEqual(t, freshView(s.cache), oracleView(s, nil), "async converged")
	st := srv.WatchStats()
	if st.PerSubscriber[0].Resyncs != 0 {
		t.Fatalf("default-capacity ring overflowed: %+v", st.PerSubscriber[0])
	}
	if st.PerSubscriber[0].Delivered == 0 {
		t.Fatal("no events delivered to the cache")
	}
}
