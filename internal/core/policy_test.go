package core

import (
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func nv(name string, sgx bool, memCap, memUsed int64, epcCap, epcUsed int64) *NodeView {
	alloc := resource.List{resource.Memory: memCap}
	used := resource.List{resource.Memory: memUsed}
	free := int64(0)
	if sgx {
		alloc[resource.EPCPages] = epcCap
		used[resource.EPCPages] = epcUsed
		free = epcCap - epcUsed
	}
	return &NodeView{Name: name, SGX: sgx, Allocatable: alloc, Used: used, FreeDevices: free}
}

func stdPod(memReq int64) *api.Pod {
	return &api.Pod{
		Name: "std",
		Spec: api.PodSpec{Containers: []api.Container{{
			Resources: api.Requirements{Requests: resource.List{resource.Memory: memReq}},
		}}},
	}
}

func sgxPodReq(memReq, pages int64) *api.Pod {
	return &api.Pod{
		Name: "sgx",
		Spec: api.PodSpec{Containers: []api.Container{{
			Resources: api.Requirements{Requests: resource.List{
				resource.Memory:   memReq,
				resource.EPCPages: pages,
			}},
		}}},
	}
}

func TestBinpackFirstFitInNameOrder(t *testing.T) {
	a := nv("a-node", false, 100, 0, 0, 0)
	b := nv("b-node", false, 100, 0, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{a, b}}
	got, ok := Binpack{}.Profile().Select(stdPod(10), []*NodeView{a, b}, view)
	if !ok || got != "a-node" {
		t.Fatalf("Select = %q, %v; want a-node", got, ok)
	}
}

func TestBinpackSGXNodesLastForStandardJobs(t *testing.T) {
	// SGX node sorts before the standard node by name, but standard jobs
	// must preserve SGX resources (§IV).
	sgxNode := nv("a-sgx", true, 100, 0, 1000, 0)
	stdNode := nv("b-std", false, 100, 0, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{sgxNode, stdNode}}
	got, ok := Binpack{}.Profile().Select(stdPod(10), []*NodeView{sgxNode, stdNode}, view)
	if !ok || got != "b-std" {
		t.Fatalf("standard job placed on %q, want b-std", got)
	}
	// With only the SGX node feasible, the job may use it.
	got, ok = Binpack{}.Profile().Select(stdPod(10), []*NodeView{sgxNode}, view)
	if !ok || got != "a-sgx" {
		t.Fatalf("fallback = %q, %v", got, ok)
	}
}

func TestBinpackSGXJobUsesSGXNodeOrder(t *testing.T) {
	s1 := nv("sgx-1", true, 100, 0, 1000, 500)
	s2 := nv("sgx-2", true, 100, 0, 1000, 0)
	view := &ClusterView{Nodes: []*NodeView{s1, s2}}
	got, ok := Binpack{}.Profile().Select(sgxPodReq(1, 100), []*NodeView{s1, s2}, view)
	if !ok || got != "sgx-1" {
		t.Fatalf("Select = %q, want first node sgx-1 (binpack fills in order)", got)
	}
}

func TestBinpackNoCandidates(t *testing.T) {
	if _, ok := (Binpack{}).Profile().Select(stdPod(1), nil, &ClusterView{}); ok {
		t.Fatal("Select succeeded with no candidates")
	}
}

func TestSpreadMinimisesStdDev(t *testing.T) {
	// Memory loads: a=80%, b=20%. A standard job of 10% should go to b to
	// even out the load.
	a := nv("a", false, 1000, 800, 0, 0)
	b := nv("b", false, 1000, 200, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{a, b}}
	got, ok := Spread{}.Profile().Select(stdPod(100), []*NodeView{a, b}, view)
	if !ok || got != "b" {
		t.Fatalf("Spread chose %q, want b", got)
	}
}

func TestSpreadSGXJobBalancesEPC(t *testing.T) {
	std := nv("a-std", false, 1000, 0, 0, 0)
	s1 := nv("b-sgx", true, 1000, 0, 1000, 600)
	s2 := nv("c-sgx", true, 1000, 0, 1000, 100)
	view := &ClusterView{Nodes: []*NodeView{std, s1, s2}}
	got, ok := Spread{}.Profile().Select(sgxPodReq(1, 100), []*NodeView{s1, s2}, view)
	if !ok || got != "c-sgx" {
		t.Fatalf("Spread chose %q, want c-sgx (lower EPC load)", got)
	}
}

func TestSpreadAvoidsSGXNodesForStandardJobs(t *testing.T) {
	// The SGX node is empty (stddev-optimal), but a standard node is
	// feasible, so the SGX node must be avoided (§IV).
	stdNode := nv("b-std", false, 1000, 500, 0, 0)
	sgxNode := nv("a-sgx", true, 1000, 0, 1000, 0)
	view := &ClusterView{Nodes: []*NodeView{stdNode, sgxNode}}
	got, ok := Spread{}.Profile().Select(stdPod(100), []*NodeView{sgxNode, stdNode}, view)
	if !ok || got != "b-std" {
		t.Fatalf("Spread chose %q, want b-std", got)
	}
	// SGX-only candidates: allowed as last resort.
	got, ok = Spread{}.Profile().Select(stdPod(100), []*NodeView{sgxNode}, view)
	if !ok || got != "a-sgx" {
		t.Fatalf("fallback = %q, %v", got, ok)
	}
}

func TestSpreadDeterministicTieBreak(t *testing.T) {
	a := nv("a", false, 1000, 0, 0, 0)
	b := nv("b", false, 1000, 0, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{a, b}}
	for i := 0; i < 5; i++ {
		got, ok := Spread{}.Profile().Select(stdPod(100), []*NodeView{a, b}, view)
		if !ok || got != "a" {
			t.Fatalf("tie-break not deterministic: %q", got)
		}
	}
}

func TestSpreadNoCandidates(t *testing.T) {
	if _, ok := (Spread{}).Profile().Select(stdPod(1), nil, &ClusterView{}); ok {
		t.Fatal("Select succeeded with no candidates")
	}
}

func TestLeastRequestedPicksEmptiestNode(t *testing.T) {
	a := nv("a", false, 1000, 900, 0, 0)
	b := nv("b", false, 1000, 100, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{a, b}}
	got, ok := LeastRequested{}.Profile().Select(stdPod(50), []*NodeView{a, b}, view)
	if !ok || got != "b" {
		t.Fatalf("LeastRequested chose %q, want b", got)
	}
}

func TestLeastRequestedIgnoresSGXPreference(t *testing.T) {
	// The baseline scheduler happily wastes an SGX node on a standard job
	// — this is exactly the behaviour the paper's scheduler fixes.
	sgxNode := nv("a-sgx", true, 1000, 0, 1000, 0)
	stdNode := nv("b-std", false, 1000, 500, 0, 0)
	view := &ClusterView{Nodes: []*NodeView{sgxNode, stdNode}}
	got, ok := LeastRequested{}.Profile().Select(stdPod(10), []*NodeView{sgxNode, stdNode}, view)
	if !ok || got != "a-sgx" {
		t.Fatalf("baseline chose %q, want a-sgx (emptier)", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if (Binpack{}).Name() != "binpack" || (Spread{}).Name() != "spread" ||
		(LeastRequested{}).Name() != "least-requested" {
		t.Fatal("policy names wrong")
	}
}
