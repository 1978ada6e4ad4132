package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// The built-in policies have been rewritten twice — as profiles over a
// plugin pipeline, then back as one Select each. These tests pin them to
// verbatim copies of the first implementations (and, for UsageAware, a
// restatement of its plugin pipeline), so every rewrite is provably
// bit-identical on randomized inputs.

// newPodInfo extracts a pod's request data the way a scheduling cycle
// does.
func newPodInfo(pod *api.Pod) *PodInfo {
	info := &PodInfo{}
	fillPodInfo(info, pod, pod.TotalRequests())
	return info
}

// refPreferNonSGX is the first preferNonSGX, verbatim.
func refPreferNonSGX(pod *api.Pod, candidates []*NodeView) []*NodeView {
	if pod.IsSGX() {
		return candidates
	}
	nonSGX := make([]*NodeView, 0, len(candidates))
	for _, c := range candidates {
		if !c.SGX {
			nonSGX = append(nonSGX, c)
		}
	}
	if len(nonSGX) > 0 {
		return nonSGX
	}
	return candidates
}

// refBinpackSelect is the first Binpack.Select, verbatim.
func refBinpackSelect(pod *api.Pod, candidates []*NodeView, _ *ClusterView) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	if !pod.IsSGX() {
		for _, c := range candidates {
			if !c.SGX {
				return c.Name, true
			}
		}
	}
	return candidates[0].Name, true
}

// refSpreadSelect is the first Spread.Select, verbatim, over the first
// hypotheticalStdDev.
func refSpreadSelect(pod *api.Pod, candidates []*NodeView, view *ClusterView) (string, bool) {
	candidates = refPreferNonSGX(pod, candidates)
	if len(candidates) == 0 {
		return "", false
	}
	res := resource.Memory
	if pod.IsSGX() {
		res = resource.EPCPages
	}
	req := pod.TotalRequests()

	best := ""
	bestDev := 0.0
	for _, cand := range candidates {
		dev := refHypotheticalStdDev(view, cand.Name, res, req.Get(res))
		if best == "" || dev < bestDev {
			best = cand.Name
			bestDev = dev
		}
	}
	return best, true
}

// refLeastRequestedSelect is the first LeastRequested.Select, verbatim.
func refLeastRequestedSelect(pod *api.Pod, candidates []*NodeView, _ *ClusterView) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	req := pod.TotalRequests()
	best := ""
	bestScore := -1.0
	for _, c := range candidates {
		capMem := c.Allocatable.Get(resource.Memory)
		if capMem <= 0 {
			continue
		}
		free := capMem - c.Used.Get(resource.Memory) - req.Get(resource.Memory)
		score := float64(free) / float64(capMem)
		if score > bestScore {
			best = c.Name
			bestScore = score
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}

// refHypotheticalStdDev is the first hypotheticalStdDev, verbatim, with
// the stats.PopStdDev it called inlined: the loads collected into a
// slice, then their population standard deviation.
func refHypotheticalStdDev(view *ClusterView, target string, res resource.Name, extra int64) float64 {
	loads := make([]float64, 0, len(view.Nodes))
	for _, n := range view.Nodes {
		if n.Allocatable.Get(res) <= 0 {
			continue
		}
		used := n.Used.Get(res)
		if n.Name == target {
			used += extra
		}
		loads = append(loads, float64(used)/float64(n.Allocatable.Get(res)))
	}
	if len(loads) == 0 {
		return 0
	}
	m := 0.0
	for _, x := range loads {
		m += x
	}
	m /= float64(len(loads))
	sum := 0.0
	for _, x := range loads {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(loads)))
}

// refUsageAwareSelect is the usage-aware profile as the plugin pipeline
// ran it: the SGX-last candidates, then the first candidate whose
// strictly greatest sum 0 + 1·headroom + 0.5·pressure lies above -Inf.
func refUsageAwareSelect(pod *api.Pod, candidates []*NodeView, _ *ClusterView) (string, bool) {
	candidates = refPreferNonSGX(pod, candidates)
	sgx := pod.IsSGX()
	res := resource.Memory
	if sgx {
		res = resource.EPCPages
	}
	req := pod.TotalRequests()
	best := ""
	bestScore := math.Inf(-1)
	for _, c := range candidates {
		headroom := 0.0
		if alloc := c.Allocatable.Get(res); alloc > 0 {
			free := alloc - c.Used.Get(res) - req.Get(res)
			if free < 0 {
				free = 0
			}
			headroom = float64(free) / float64(alloc)
		}
		pressure := 0.0
		if sgx && c.SGX {
			if alloc := c.Allocatable.Get(resource.EPCPages); alloc > 0 {
				pressure = -float64(c.Used.Get(resource.EPCPages)) / float64(alloc)
			}
		}
		score := 0.0
		score += 1 * headroom
		score += 0.5 * pressure
		if score > bestScore {
			best = c.Name
			bestScore = score
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}

// randomView builds a random cluster view plus the feasible-candidate
// subsets the scheduler would hand a policy.
func randomView(rng *rand.Rand) *ClusterView {
	view := &ClusterView{}
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		sgx := rng.Intn(2) == 0
		alloc := resource.List{
			resource.Memory: int64(1+rng.Intn(64)) * resource.GiB,
			resource.CPU:    8000,
		}
		used := resource.List{resource.Memory: int64(rng.Intn(80)) * resource.GiB / 2}
		free := int64(0)
		if sgx {
			alloc[resource.EPCPages] = int64(1000 + rng.Intn(30000))
			used[resource.EPCPages] = int64(rng.Intn(30000))
			free = alloc[resource.EPCPages] - int64(rng.Intn(10000))
		}
		if rng.Intn(8) == 0 {
			alloc[resource.Memory] = 0 // exercise the capacity-less edge
		}
		view.Nodes = append(view.Nodes, &NodeView{
			Name:        fmt.Sprintf("n%02d", i),
			SGX:         sgx,
			Allocatable: alloc,
			Used:        used,
			FreeDevices: free,
		})
	}
	return view
}

func randomPolicyPod(rng *rand.Rand) *api.Pod {
	req := resource.List{resource.Memory: int64(rng.Intn(8)) * resource.GiB}
	if rng.Intn(2) == 0 {
		req[resource.EPCPages] = int64(1 + rng.Intn(8000))
	}
	return &api.Pod{
		Name: "p",
		Spec: api.PodSpec{Containers: []api.Container{{
			Resources: api.Requirements{Requests: req},
		}}},
	}
}

// TestProfilePoliciesMatchReferenceImplementations randomizes views,
// candidate subsets and pods, and requires every policy's Select to agree
// exactly with its reference.
func TestProfilePoliciesMatchReferenceImplementations(t *testing.T) {
	type refFn func(*api.Pod, []*NodeView, *ClusterView) (string, bool)
	cases := []struct {
		policy Policy
		ref    refFn
	}{
		{Binpack{}, refBinpackSelect},
		{Spread{}, refSpreadSelect},
		{LeastRequested{}, refLeastRequestedSelect},
		{UsageAware{}, refUsageAwareSelect},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		view := randomView(rng)
		pod := randomPolicyPod(rng)
		// Candidate subset in node order, as the filter stage produces.
		candidates := make([]*NodeView, 0, len(view.Nodes))
		for _, n := range view.Nodes {
			if rng.Intn(3) > 0 {
				candidates = append(candidates, n)
			}
		}
		for _, tc := range cases {
			gotName, gotOK := tc.policy.Select(newPodInfo(pod), candidates, view)
			wantName, wantOK := tc.ref(pod, candidates, view)
			if gotName != wantName || gotOK != wantOK {
				t.Fatalf("trial %d: %s diverged from reference: got (%q, %v), want (%q, %v)",
					trial, tc.policy.Name(), gotName, gotOK, wantName, wantOK)
			}
		}
	}
}

// sectionIV restates the §IV filter for the property below: an SGX pod
// needs an SGX node with enough free device items, and every quantity the
// pod asks for must fit what the node has left — which may be negative.
func sectionIV(req resource.List, n *NodeView) bool {
	ok := req[resource.EPCPages] <= 0 || (n.SGX && req[resource.EPCPages] <= n.FreeDevices)
	for _, r := range []resource.Name{resource.CPU, resource.Memory, resource.EPCPages} {
		ok = ok && (req[r] <= 0 || req[r] <= n.Allocatable[r]-n.Used[r])
	}
	return ok
}

// TestDefaultFeasibilityMatchesFits is the differential property of the
// feasibility rule: on randomized nodes (over-used ones included) and
// pods, NodeView.Fits — the filter every policy selects behind — agrees with
// the restatement above, and so do the two other readers of the rule —
// the gang director's slot count (memberSlots) and the preemption
// planner's static check.
func TestDefaultFeasibilityMatchesFits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var overUsed, accepted int
	for trial := 0; trial < 2000; trial++ {
		view := randomView(rng)
		pod := randomPolicyPod(rng)
		if rng.Intn(4) == 0 {
			pod.Spec.Containers[0].Resources.Requests[resource.CPU] = int64(rng.Intn(12000))
		}
		info := newPodInfo(pod)
		for _, n := range view.Nodes {
			got, want := n.Fits(info.Req), sectionIV(info.Req, n)
			if got != want {
				t.Fatalf("trial %d node %+v pod %v: Fits = %v, §IV = %v", trial, n, info.Req, got, want)
			}
			if slots := memberSlots(info, n); (slots > 0) != got {
				t.Fatalf("trial %d node %+v pod %v: memberSlots = %d, Fits = %v", trial, n, info.Req, slots, got)
			}
			empty := &NodeView{Name: n.Name, SGX: n.SGX, Allocatable: n.Allocatable, FreeDevices: n.Allocatable[resource.EPCPages]}
			if static, want := staticallyFeasible(info, n), empty.Fits(info.Req); static != want {
				t.Fatalf("trial %d node %+v pod %v: staticallyFeasible = %v, Fits on the empty node = %v", trial, n, info.Req, static, want)
			}
			if n.Used[resource.EPCPages] > n.Allocatable[resource.EPCPages] && !info.SGX {
				overUsed++
				if got {
					accepted++
				}
			}
		}
	}
	// The generator must reach the case the q > 0 guard exists for: a node
	// whose measured EPC exceeds its allocatable still takes standard pods.
	if overUsed == 0 || accepted == 0 {
		t.Fatalf("EPC-over-used nodes × standard pods: %d drawn, %d accepted; the generator lost the case", overUsed, accepted)
	}
}

// TestUsageAwareProfileScoring: the usage-aware policy places on the
// node with the most measured headroom and penalises EPC pressure.
func TestUsageAwareProfileScoring(t *testing.T) {
	loaded := nv("a", false, 1000, 900, 0, 0)
	idle := nv("b", false, 1000, 100, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{loaded, idle}}
	got, ok := UsageAware{}.Select(newPodInfo(stdPod(50)), view.Nodes, view)
	if !ok || got != "b" {
		t.Fatalf("usage-aware chose %q, want b (most headroom)", got)
	}

	// Two SGX nodes with equal device headroom but different measured EPC
	// pressure: the cooler node wins.
	hot := nv("a-sgx", true, 1000, 0, 10000, 9000)
	cool := nv("b-sgx", true, 1000, 0, 10000, 1000)
	hot.FreeDevices, cool.FreeDevices = 5000, 5000
	view = &ClusterView{Nodes: []*NodeView{hot, cool}}
	got, ok = UsageAware{}.Select(newPodInfo(sgxPodReq(1, 100)), view.Nodes, view)
	if !ok || got != "b-sgx" {
		t.Fatalf("usage-aware chose %q, want b-sgx (less EPC pressure)", got)
	}
}

// TestSpreadScoreMonotonicInStdDev: spread places on a candidate whose
// hypothetical load stddev no other candidate beats, the first such in
// candidate order; and the allocation-free hypotheticalStdDev is
// bit-identical to the slice-and-PopStdDev one it replaced.
func TestSpreadScoreMonotonicInStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		view := randomView(rng)
		pod := randomPolicyPod(rng)
		info := newPodInfo(pod)
		res := resource.Memory
		if info.SGX {
			res = resource.EPCPages
		}
		req := pod.TotalRequests()
		devs := make(map[string]float64)
		for _, n := range view.Nodes {
			dev := hypotheticalStdDev(view, n.Name, res, req.Get(res))
			if want := refHypotheticalStdDev(view, n.Name, res, req.Get(res)); math.Float64bits(dev) != math.Float64bits(want) {
				t.Fatalf("trial %d: hypotheticalStdDev(%s) = %v, the reference %v", trial, n.Name, dev, want)
			}
			devs[n.Name] = dev
		}
		got, ok := Spread{}.Select(info, view.Nodes, view)
		if !ok {
			t.Fatalf("trial %d: spread declined %d candidates", trial, len(view.Nodes))
		}
		skip, earlier := offSGX(info, view.Nodes), true
		for _, n := range view.Nodes {
			switch {
			case skip && n.SGX:
			case n.Name == got:
				earlier = false
			case devs[n.Name] < devs[got] || earlier && devs[n.Name] == devs[got]:
				t.Fatalf("trial %d: spread chose %s (stddev %v) over %s (%v)", trial, got, devs[got], n.Name, devs[n.Name])
			}
		}
	}
}

// TestPopStdDevEmpty guards the spread edge the policy relies on: with no
// node holding the resource the stddev is 0, not NaN, so scoring stays
// ordered.
func TestPopStdDevEmpty(t *testing.T) {
	view := &ClusterView{Nodes: []*NodeView{nv("a", false, 1000, 0, 0, 0)}}
	if got := hypotheticalStdDev(view, "a", resource.EPCPages, 100); got != 0 {
		t.Fatalf("hypotheticalStdDev over no EPC-holding node = %v, want 0", got)
	}
}
