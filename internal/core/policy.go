package core

import (
	"math"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// PodInfo carries one pending pod together with its request data, summed
// over the pod's containers once per queue entry so the per-(pod, node)
// fit checks and policy scores read scalars. The cycle refills it for
// every pod, so what the cycle writes into it (the gang director's age
// boost of Priority) lasts for that pod's cycle only.
type PodInfo struct {
	Pod *api.Pod
	// Req is the pod's total resource requests.
	Req resource.List
	// EPCPages is the requested EPC page count (0 if none).
	EPCPages int64
	// SGX reports whether the pod requests EPC (EPCPages > 0).
	SGX bool
	// Priority is the pod's scheduling priority (Spec.Priority).
	Priority int32
}

// fillPodInfo populates info in place from a pod and its request totals.
func fillPodInfo(info *PodInfo, pod *api.Pod, req resource.List) {
	*info = PodInfo{Pod: pod, Req: req, Priority: pod.Spec.Priority}
	info.EPCPages = info.Req[resource.EPCPages]
	info.SGX = info.EPCPages > 0
}

// Policy is a placement strategy: Select picks the node a pod goes to
// among the candidates the §IV filter (NodeView.Fits) accepted, or
// declines them all. The full scan hands the candidates over sorted by
// node name, §IV's consistent order; the sampled search in best-fit
// bucket order. Select must not keep the candidate slice, and it must be
// safe for concurrent use: the built-in policies are empty structs, so
// one value may serve any number of schedulers.
type Policy interface {
	Name() string
	Select(pod *PodInfo, candidates []*NodeView, view *ClusterView) (string, bool)
}

// offSGX is §IV's SGX-last rule, which every policy but the request-only
// baseline follows: a standard pod is kept off SGX nodes whenever some
// candidate is a standard node — both paper policies "only resort to
// SGX-enabled nodes for non-SGX jobs when no other choice is possible".
func offSGX(pod *PodInfo, candidates []*NodeView) bool {
	if pod.SGX {
		return false
	}
	for _, c := range candidates {
		if !c.SGX {
			return true
		}
	}
	return false
}

// best returns the first candidate with the strictly greatest score above
// min, passing over SGX nodes when skipSGX is set; it declines when no
// candidate scores above min.
func best(candidates []*NodeView, skipSGX bool, min float64, score func(*NodeView) float64) (string, bool) {
	name, top := "", min
	for _, c := range candidates {
		if skipSGX && c.SGX {
			continue
		}
		if s := score(c); s > top {
			name, top = c.Name, s
		}
	}
	return name, name != ""
}

// contended is the resource a pod's placement is judged on: EPC for SGX
// pods, memory otherwise.
func contended(pod *PodInfo) resource.Name {
	if pod.SGX {
		return resource.EPCPages
	}
	return resource.Memory
}

// Binpack implements the §IV binpack strategy: "the scheduler always tries
// to fit as many jobs as possible on the same node. As soon as its
// resources become insufficient, the scheduler advances to the next node
// in the pool." Node order is the consistent by-name order, with SGX
// nodes sorted last for standard jobs to preserve their EPC.
type Binpack struct{}

// Name implements Policy.
func (Binpack) Name() string { return "binpack" }

// Select implements Policy: the first candidate, SGX nodes last for a
// standard pod.
func (Binpack) Select(pod *PodInfo, candidates []*NodeView, _ *ClusterView) (string, bool) {
	skip := offSGX(pod, candidates)
	for _, c := range candidates {
		if !skip || !c.SGX {
			return c.Name, true
		}
	}
	return "", false
}

// Spread implements the §IV spread strategy: "the main goal of the spread
// strategy is to even out the load across all nodes. It works by choosing
// job-node combinations that yield the smallest standard deviation of
// load across the nodes."
type Spread struct{}

// Name implements Policy.
func (Spread) Name() string { return "spread" }

// Select implements Policy: SGX nodes last for a standard pod, then the
// candidate whose placement leaves the smallest load stddev on the pod's
// contended resource — EPC fraction across SGX nodes for SGX jobs, memory
// fraction otherwise. Ties break on candidate order, keeping runs
// deterministic.
func (Spread) Select(pod *PodInfo, candidates []*NodeView, view *ClusterView) (string, bool) {
	res := contended(pod)
	return best(candidates, offSGX(pod, candidates), math.Inf(-1), func(n *NodeView) float64 {
		return -hypotheticalStdDev(view, n.Name, res, pod.Req[res])
	})
}

// hypotheticalStdDev computes the population standard deviation of load
// across the nodes holding the resource, with extra added onto target:
// the mean of the loads summed in node order, then the root of the mean
// squared deviation. It allocates nothing — spread rates every candidate
// of every pod with it.
func hypotheticalStdDev(view *ClusterView, target string, res resource.Name, extra int64) float64 {
	load := func(n *NodeView) float64 {
		used := n.Used.Get(res)
		if n.Name == target {
			used += extra
		}
		return float64(used) / float64(n.Allocatable.Get(res))
	}
	k, sum := 0, 0.0
	for _, n := range view.Nodes {
		if n.Allocatable.Get(res) > 0 {
			k++
			sum += load(n)
		}
	}
	if k == 0 {
		return 0
	}
	m := sum / float64(k)
	sq := 0.0
	for _, n := range view.Nodes {
		if n.Allocatable.Get(res) > 0 {
			d := load(n) - m
			sq += d * d
		}
	}
	return math.Sqrt(sq / float64(k))
}

// LeastRequested mirrors the request-only scoring of Kubernetes' default
// scheduler (§V-B deploys it side by side with the SGX-aware one). It is
// the baseline for the ablation benchmarks: no SGX-last ordering and no
// usage metrics, so it demonstrates what SGX-awareness buys.
type LeastRequested struct{}

// Name implements Policy.
func (LeastRequested) Name() string { return "least-requested" }

// Select implements Policy: the candidate with the greatest free memory
// fraction after placement. A node without memory capacity cannot be
// ranked, and the -1 floor keeps the historical contract that a node more
// than fully committed past its capacity is declined rather than ranked.
func (LeastRequested) Select(pod *PodInfo, candidates []*NodeView, _ *ClusterView) (string, bool) {
	return best(candidates, false, -1, func(n *NodeView) float64 {
		capMem := n.Allocatable[resource.Memory]
		if capMem <= 0 {
			return math.Inf(-1)
		}
		free := capMem - n.Used[resource.Memory] - pod.Req[resource.Memory]
		return float64(free) / float64(capMem)
	})
}

// UsageAware is a policy with no counterpart in the paper, in the style
// of HEATS' heterogeneity-aware placement: it keeps the SGX-last rule but
// scores placements by measured usage headroom combined with an
// EPC-pressure penalty, so SGX-heavy load spreads away from nodes whose
// enclave pages are already hot.
type UsageAware struct{}

// Name implements Policy.
func (UsageAware) Name() string { return "usage-aware" }

// Select implements Policy: SGX nodes last for a standard pod, then the
// candidate with the greatest headroom + 0.5·pressure. Headroom is the
// free fraction of the pod's contended resource after placement, read
// from Used — the fused window-peak usage of monitor.WindowMax — so the
// scheduler chases actual free capacity rather than request accounting.
// Pressure is the negated EPC load fraction of an SGX node for an SGX
// pod, and 0 otherwise: standard pods never touch EPC.
func (UsageAware) Select(pod *PodInfo, candidates []*NodeView, _ *ClusterView) (string, bool) {
	res := contended(pod)
	return best(candidates, offSGX(pod, candidates), math.Inf(-1), func(n *NodeView) float64 {
		headroom := 0.0
		if alloc := n.Allocatable[res]; alloc > 0 {
			free := max(alloc-n.Used[res]-pod.Req[res], 0)
			headroom = float64(free) / float64(alloc)
		}
		pressure := 0.0
		if pod.SGX && n.SGX {
			if alloc := n.Allocatable.Get(resource.EPCPages); alloc > 0 {
				pressure = -float64(n.Used.Get(resource.EPCPages)) / float64(alloc)
			}
		}
		return headroom + 0.5*pressure
	})
}
