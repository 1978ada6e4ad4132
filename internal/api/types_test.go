package api

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

func samplePod() *Pod {
	return &Pod{
		Name: "job-1",
		UID:  1,
		Spec: PodSpec{
			SchedulerName: "sgx-binpack",
			Containers: []Container{
				{
					Name:  "main",
					Image: "sebvaucher/sgx-base:latest",
					Resources: Requirements{
						Requests: resource.List{resource.Memory: 100, resource.EPCPages: 10},
						Limits:   resource.List{resource.Memory: 100, resource.EPCPages: 10},
					},
					Workload: WorkloadSpec{Kind: WorkloadStressEPC, Duration: time.Minute, AllocBytes: 40960},
				},
				{
					Name:      "sidecar",
					Resources: Requirements{Requests: resource.List{resource.Memory: 50}},
				},
			},
		},
	}
}

func TestPodAggregates(t *testing.T) {
	p := samplePod()
	req := p.TotalRequests()
	if req[resource.Memory] != 150 || req[resource.EPCPages] != 10 {
		t.Fatalf("TotalRequests = %v", req)
	}
	lim := p.TotalLimits()
	if lim[resource.Memory] != 100 || lim[resource.EPCPages] != 10 {
		t.Fatalf("TotalLimits = %v", lim)
	}
	if !p.IsSGX() {
		t.Fatal("pod with EPC request should be SGX")
	}
	p2 := &Pod{Spec: PodSpec{Containers: []Container{{
		Resources: Requirements{Requests: resource.List{resource.Memory: 1}},
	}}}}
	if p2.IsSGX() {
		t.Fatal("pod without EPC request reported as SGX")
	}
}

func TestPhaseAndTimes(t *testing.T) {
	p := samplePod()
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	p.Status.SubmittedAt = base
	if _, ok := p.WaitingTime(); ok {
		t.Fatal("WaitingTime available before start")
	}
	if _, ok := p.TurnaroundTime(); ok {
		t.Fatal("TurnaroundTime available before finish")
	}
	p.Status.StartedAt = base.Add(30 * time.Second)
	w, ok := p.WaitingTime()
	if !ok || w != 30*time.Second {
		t.Fatalf("WaitingTime = %v, %v", w, ok)
	}
	p.Status.FinishedAt = base.Add(90 * time.Second)
	tt, ok := p.TurnaroundTime()
	if !ok || tt != 90*time.Second {
		t.Fatalf("TurnaroundTime = %v, %v", tt, ok)
	}
	if p.IsTerminal() {
		t.Fatal("pod without terminal phase reported terminal")
	}
	p.Status.Phase = PodSucceeded
	if !p.IsTerminal() {
		t.Fatal("succeeded pod not terminal")
	}
	p.Status.Phase = PodFailed
	if !p.IsTerminal() {
		t.Fatal("failed pod not terminal")
	}
}

func TestPodCloneIsDeep(t *testing.T) {
	p := samplePod()
	p.Labels = map[string]string{"a": "1"}
	c := p.Clone()
	c.Labels["a"] = "2"
	c.Spec.Containers[0].Resources.Requests[resource.Memory] = 999
	c.Spec.Containers[0].Name = "changed"
	if p.Labels["a"] != "1" {
		t.Fatal("labels aliased")
	}
	if p.Spec.Containers[0].Resources.Requests[resource.Memory] != 100 {
		t.Fatal("requests aliased")
	}
	if p.Spec.Containers[0].Name != "main" {
		t.Fatal("containers aliased")
	}
}

func TestNodeHasSGXAndClone(t *testing.T) {
	n := &Node{
		Name:        "sgx-1",
		Capacity:    resource.List{resource.Memory: 8 * resource.GiB, resource.EPCPages: 23936},
		Allocatable: resource.List{resource.Memory: 8 * resource.GiB, resource.EPCPages: 23936},
		Ready:       true,
	}
	if !n.HasSGX() {
		t.Fatal("SGX node not detected")
	}
	plain := &Node{Name: "std-1", Allocatable: resource.List{resource.Memory: 64 * resource.GiB}}
	if plain.HasSGX() {
		t.Fatal("non-SGX node detected as SGX")
	}
	c := n.Clone()
	c.Allocatable[resource.EPCPages] = 0
	if !n.HasSGX() {
		t.Fatal("clone aliased allocatable")
	}
}

func TestWorkloadKindString(t *testing.T) {
	if WorkloadSleep.String() != "sleep" ||
		WorkloadStressVM.String() != "stress-vm" ||
		WorkloadStressEPC.String() != "stress-epc" {
		t.Fatal("workload kind strings wrong")
	}
	if WorkloadKind(99).String() != "WorkloadKind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

// TestRequestSumsAndClonesAllocsPinned: a request total is three integers
// summed on the stack, a pod copy is the struct plus its containers, and
// a node copy is the struct alone — a per-container or per-list
// allocation coming back shows on every event and every scheduling cycle.
func TestRequestSumsAndClonesAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	p := samplePod()
	p.Spec.Containers = p.Spec.Containers[:1]
	n := &Node{Name: "sgx-1", Allocatable: resource.List{resource.Memory: 8 * resource.GiB, resource.EPCPages: 23936}}
	var sink resource.List
	var podSink *Pod
	var nodeSink *Node
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Pod.TotalRequests", 0, func() { sink = p.TotalRequests() }},
		{"Pod.TotalLimits", 0, func() { sink = p.TotalLimits() }},
		{"Pod.Clone (one container, no labels)", 2, func() { podSink = p.Clone() }},
		{"Node.Clone (no labels)", 1, func() { nodeSink = n.Clone() }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s allocates %.0f objects, pinned at %.0f", tc.name, got, tc.max)
		}
	}
	_, _, _ = sink, podSink, nodeSink
}
