package core

import "github.com/sgxorch/sgxorch/internal/api"

// This file implements workload classes. A pod's class is the one its
// spec declares (api.PodSpec.WorkloadClass), as an SGX job is one whose
// pod declares EPC pages (§V-A); nothing is inferred. Each class has a
// fixed scheduling profile — the placement policy, candidate-sampling
// bounds and preemption eligibility — that a scheduler resolves once, at
// construction, into a table of pipelines indexed by class slot; per pod
// the pass looks its slot up. Unclassified pods land on the default slot,
// the scheduler's own Config.Policy. Gang scheduling is not part of any
// class's pipeline: the cycle hands a gang member to the gang director in
// whichever slot it lands.

// DefaultLatencyMinFeasible is the raised sampling floor of the
// latency-sensitive class: its candidate search never stops below this
// many feasible nodes (5× the scheduler default), so a latency-sensitive
// pod is never placed from a thin sample of a large cluster.
const DefaultLatencyMinFeasible = 5 * DefaultMinFeasibleNodesToFind

// ClassifierConfig is ignored: a pod's class is the one it declares. It
// stays only because the benchmark module builds it; ROADMAP item 29
// removes it.
type ClassifierConfig struct{}

// WorkloadClassifier is ignored, like ClassifierConfig; ROADMAP item 29
// removes it.
type WorkloadClassifier struct{}

// NewWorkloadClassifier returns an inert classifier; ROADMAP item 29
// removes it.
func NewWorkloadClassifier(ClassifierConfig) *WorkloadClassifier { return &WorkloadClassifier{} }

// ClassRegistry is ignored: every scheduler routes a declared class
// through its fixed profile (resolvePipelines). It stays only because the
// benchmark module sets Config.Classes; ROADMAP item 29 removes it.
type ClassRegistry struct{}

// NewClassRegistry returns an inert registry; ROADMAP item 29 removes it.
func NewClassRegistry(*WorkloadClassifier) *ClassRegistry { return &ClassRegistry{} }

// pipeline is one class slot's resolved scheduling behaviour: the
// placement policy, the candidate-sampling bounds and the preemption
// gates. A scheduler holds one per slot, resolved at
// construction, so the pass never re-derives a profile.
type pipeline struct {
	policy      Policy
	minFeasible int
	// mayPreempt gates whether the slot's pods ever evict others; takeBE
	// additionally admits declared best-effort pods as victims across
	// priority tiers.
	mayPreempt bool
	takeBE     bool
}

// resolvePipelines builds a scheduler's pipeline table, in api.Classes
// order:
//
//   - unclassified: the scheduler's own policy with the default sampling
//     floor, free to preempt strictly lower tiers;
//   - latency-sensitive: usage-aware scoring (headroom + EPC pressure,
//     SGX-last), never sampled below DefaultLatencyMinFeasible feasible
//     nodes, may preempt lower tiers and declared best-effort pods of any
//     tier;
//   - batch: bin-packs (SGX-last first-fit), never preempts;
//   - best-effort: spreads by load stddev, never preempts — and its bound
//     pods are always preemption-eligible, which the cache tracks from
//     the declared spec class.
func resolvePipelines(policy Policy) [api.NumClasses]pipeline {
	return [api.NumClasses]pipeline{
		{policy: policy, minFeasible: DefaultMinFeasibleNodesToFind, mayPreempt: true},
		{policy: UsageAware{}, minFeasible: DefaultLatencyMinFeasible, mayPreempt: true, takeBE: true},
		{policy: Binpack{}, minFeasible: DefaultMinFeasibleNodesToFind},
		{policy: Spread{}, minFeasible: DefaultMinFeasibleNodesToFind},
	}
}
