package core

import (
	"fmt"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// planOnly declines every candidate, so a scheduling pass does all
// candidate-generation work but binds nothing — keeping the cluster, and
// therefore the per-iteration cost, stable across benchmark iterations.
type planOnly struct{}

func (planOnly) Name() string { return "plan-only" }
func (planOnly) Select(*PodInfo, []*NodeView, *ClusterView) (string, bool) {
	return "", false
}

// BenchmarkMillionPod is the ROADMAP's million-pod scale tier: 5k nodes,
// 1M bound pods (primed directly into the cluster cache) and a backlog of
// 1,000 pending pods, which every pass examines whole. The depth of a
// queue behind the pods a pass examines costs it nothing
// (TestPassCostIndependentOfQueueDepth), so a deeper backlog would only
// lengthen setup. The cluster is shaped so that ~1 node in 20 has
// headroom for a pending pod and the rest sit within one request of full
// — the regime where indexed candidate generation pays: the log2
// free-memory buckets prove the full nodes infeasible without visiting
// them, so a sampled pass visits O(open nodes) per pod while the
// full-scan arm walks all 5k. Passes plan without binding (plan-only
// policy), so every iteration measures the same pass. The two arms
// differ only in the default pipeline's sampling floor: the default
// (adaptive sampling) vs the node count (full scan, the pre-index
// behaviour); the acceptance bar is indexed >= 10x faster.
//
// -short drops to 500 nodes / 100k bound for CI smoke.
func BenchmarkMillionPod(b *testing.B) {
	nodes, bound := 5000, 1_000_000
	if testing.Short() {
		nodes, bound = 500, 100_000
	}
	const (
		pending    = 1000               // the backlog every pass plans
		openEvery  = 20                 // 1 node in 20 has headroom
		closedPods = 210                // bound pods per nearly-full node
		openPods   = 10                 // bound pods per open node
		nodeMem    = 64 * resource.GiB  // allocatable memory per node
		smallPod   = 256 * resource.MiB // bound pod request on closed nodes
		tinyPod    = 16 * resource.MiB  // bound pod request on open nodes
		pendingReq = 512 * resource.MiB // pending pod request
		closedFree = 384 * resource.MiB // headroom left on closed nodes (< pendingReq)
	)
	for _, mode := range []struct {
		name     string
		fullScan bool
	}{
		{"indexed-sampled", false},
		{"full-scan", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			clk := clock.NewSim()
			srv := apiserver.New(clk)
			defer srv.Close()
			sched, err := New(clk, srv, nil, Config{Name: "mp", Policy: planOnly{}})
			if err != nil {
				b.Fatal(err)
			}
			defer sched.Close()
			if mode.fullScan {
				sched.pipelines[0].minFeasible = nodes
			}
			alloc := resource.List{resource.Memory: nodeMem, resource.CPU: 64000}
			for i := 0; i < nodes; i++ {
				if err := srv.RegisterNode(&api.Node{
					Name:        fmt.Sprintf("node-%05d", i),
					Capacity:    alloc.Clone(),
					Allocatable: alloc.Clone(),
					Ready:       true,
				}); err != nil {
					b.Fatal(err)
				}
			}
			// Prime the bound population directly into the cache: replaying
			// 10^6 watch events through the server would dominate setup.
			cache := sched.cache
			hog := nodeMem - (closedPods-1)*smallPod - closedFree
			injected := 0
			for i := 0; i < nodes; i++ {
				node := fmt.Sprintf("node-%05d", i)
				if i%openEvery == 0 {
					for p := 0; p < openPods; p++ {
						cache.injectBoundPod(fmt.Sprintf("bound-%05d-%03d", i, p), node, tinyPod, 0)
						injected++
					}
					continue
				}
				for p := 0; p < closedPods-1; p++ {
					cache.injectBoundPod(fmt.Sprintf("bound-%05d-%03d", i, p), node, smallPod, 0)
					injected++
				}
				cache.injectBoundPod(fmt.Sprintf("bound-%05d-hog", i), node, hog, 0)
				injected++
			}
			if !testing.Short() && injected != bound {
				b.Fatalf("primed %d bound pods, want %d", injected, bound)
			}
			for p := 0; p < pending; p++ {
				pod := &api.Pod{
					Name: fmt.Sprintf("pending-%06d", p),
					Spec: api.PodSpec{
						SchedulerName: "mp",
						Containers: []api.Container{{
							Name:      "main",
							Resources: api.Requirements{Requests: resource.List{resource.Memory: pendingReq}},
						}},
					},
				}
				if err := srv.CreatePod(pod); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.ScheduleOnce()
			}
			b.StopTimer()
			st := sched.Stats()
			// Every pass walks the whole backlog, each pod once, and binds
			// nothing: a walk that dropped or repeated a pod shows here.
			if st.Bound != 0 || st.Unschedulable != st.Passes*pending {
				b.Fatalf("%d passes bound %d and planned %d pods, want 0 and %d each",
					st.Passes, st.Bound, st.Unschedulable, pending)
			}
			if !mode.fullScan && st.Sampled == 0 {
				b.Fatal("indexed arm never engaged sampling")
			}
			if mode.fullScan && st.Sampled != 0 {
				b.Fatal("full-scan arm engaged sampling")
			}
			b.ReportMetric(float64(st.Unschedulable)/float64(st.Passes), "pods_planned/pass")
		})
	}
}
