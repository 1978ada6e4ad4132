package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// The built-in policies were rewritten as plugin profiles; these tests pin
// them to verbatim copies of the pre-framework implementations, so the
// refactor is provably bit-identical on randomized inputs.

// newPodInfo extracts a pod's request data the way a scheduling cycle
// does.
func newPodInfo(pod *api.Pod) *PodInfo {
	info := &PodInfo{}
	fillPodInfo(info, pod, pod.TotalRequests())
	return info
}

// refPreferNonSGX is the pre-framework preferNonSGX, verbatim.
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

// refBinpackSelect is the pre-framework Binpack.Select, verbatim.
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

// refSpreadSelect is the pre-framework Spread.Select, verbatim.
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
		dev := hypotheticalStdDev(view, cand.Name, res, req.Get(res))
		if best == "" || dev < bestDev {
			best = cand.Name
			bestDev = dev
		}
	}
	return best, true
}

// refLeastRequestedSelect is the pre-framework LeastRequested.Select,
// verbatim.
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
// candidate subsets and pods, and requires the profile-backed Selects to
// agree exactly with the pre-framework code.
func TestProfilePoliciesMatchReferenceImplementations(t *testing.T) {
	type refFn func(*api.Pod, []*NodeView, *ClusterView) (string, bool)
	cases := []struct {
		policy Policy
		ref    refFn
	}{
		{Binpack{}, refBinpackSelect},
		{Spread{}, refSpreadSelect},
		{LeastRequested{}, refLeastRequestedSelect},
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
			gotName, gotOK := tc.policy.Profile().selectInfo(newPodInfo(pod), candidates, view, nil)
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
// pods, NodeView.Fits — the filter every profile applies — agrees with
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

// TestUsageAwareProfileScoring: the usage-aware profile places on the
// node with the most measured headroom and penalises EPC pressure.
func TestUsageAwareProfileScoring(t *testing.T) {
	loaded := nv("a", false, 1000, 900, 0, 0)
	idle := nv("b", false, 1000, 100, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{loaded, idle}}
	got, ok := UsageAware{}.Profile().selectInfo(newPodInfo(stdPod(50)), view.Nodes, view, nil)
	if !ok || got != "b" {
		t.Fatalf("usage-aware chose %q, want b (most headroom)", got)
	}

	// Two SGX nodes with equal device headroom but different measured EPC
	// pressure: the cooler node wins.
	hot := nv("a-sgx", true, 1000, 0, 10000, 9000)
	cool := nv("b-sgx", true, 1000, 0, 10000, 1000)
	hot.FreeDevices, cool.FreeDevices = 5000, 5000
	view = &ClusterView{Nodes: []*NodeView{hot, cool}}
	got, ok = UsageAware{}.Profile().selectInfo(newPodInfo(sgxPodReq(1, 100)), view.Nodes, view, nil)
	if !ok || got != "b-sgx" {
		t.Fatalf("usage-aware chose %q, want b-sgx (less EPC pressure)", got)
	}
}

// TestProfileComposition: custom profiles assemble preferences and
// weighted scores.
func TestProfileComposition(t *testing.T) {
	prof := NewProfile("custom",
		WithPreScore(SGXLastPreScore{}),
		WithScores(
			WeightedScore{Plugin: LeastRequestedScore{}, Weight: 2},
			WeightedScore{Plugin: EPCPressureScore{}, Weight: 1},
		),
	)
	if prof.Name() != "custom" {
		t.Fatalf("name = %q", prof.Name())
	}
	a := nv("a", false, 1000, 800, 0, 0)
	b := nv("b", false, 1000, 0, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{a, b}}
	got, ok := prof.selectInfo(newPodInfo(stdPod(10)), view.Nodes, view, nil)
	if !ok || got != "b" {
		t.Fatalf("custom profile chose %q, want b", got)
	}
	// Profiles are Policies that yield themselves: they plug into a
	// scheduler config directly.
	var pol Policy = prof
	if pol.Profile() != prof {
		t.Fatal("a profile used as a Policy must yield itself")
	}
}

// TestPreScoreDeclineContract: a pre-score plugin returning a non-nil
// empty slice declines every candidate, while nil means no preference —
// the contract custom profiles compose against.
func TestPreScoreDeclineContract(t *testing.T) {
	// All candidates lack memory capacity: MemoryCapacityPreScore must
	// decline them even when a later score plugin would happily rank them.
	prof := NewProfile("decline",
		WithPreScore(MemoryCapacityPreScore{}),
		WithScores(WeightedScore{Plugin: BinpackScore{}, Weight: 1}),
	)
	noCap := &NodeView{Name: "a", Allocatable: resource.List{}, Used: resource.List{}}
	view := &ClusterView{Nodes: []*NodeView{noCap}}
	if got, ok := prof.selectInfo(newPodInfo(stdPod(10)), view.Nodes, view, nil); ok {
		t.Fatalf("profile placed on capacity-less node %q; pre-score decline ignored", got)
	}

	// SGXLast with only SGX candidates reports no preference (nil), so
	// the standard pod still places as a last resort.
	prof = NewProfile("fallback",
		WithPreScore(SGXLastPreScore{}),
		WithScores(WeightedScore{Plugin: BinpackScore{}, Weight: 1}),
	)
	sgxOnly := nv("s", true, 100, 0, 1000, 0)
	view = &ClusterView{Nodes: []*NodeView{sgxOnly}}
	if got, ok := prof.selectInfo(newPodInfo(stdPod(10)), view.Nodes, view, nil); !ok || got != "s" {
		t.Fatalf("SGX-last fallback = (%q, %v), want (s, true)", got, ok)
	}
}

// TestSpreadScoreMonotonicInStdDev: the score plugin must order nodes
// exactly opposite to the hypothetical stddev.
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
		for _, n := range view.Nodes {
			score := (SpreadScore{}).Score(info, n, view)
			dev := hypotheticalStdDev(view, n.Name, res, req.Get(res))
			if score != -dev {
				t.Fatalf("SpreadScore = %v, want %v", score, -dev)
			}
		}
	}
}

// TestPopStdDevEmpty guards the spread edge the profile relies on: no
// resource-holding nodes must yield 0, not NaN, so scoring stays ordered.
func TestPopStdDevEmpty(t *testing.T) {
	if got := stats.PopStdDev(nil); got != 0 {
		t.Fatalf("PopStdDev(nil) = %v, want 0", got)
	}
}
