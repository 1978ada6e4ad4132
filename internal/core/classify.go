package core

import (
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
)

// This file implements workload classes: a WorkloadClassifier assigns
// each pending pod a class (explicitly declared via api.PodSpec.Class, or
// inferred from duration, priority, gang and EPC signals), and a
// ClassRegistry resolves each class to its own scheduling profile — the
// placement policy, candidate-sampling bounds and preemption
// eligibility. A scheduler resolves the registry (Config.Classes) once,
// at construction, into a table of pipelines indexed by class slot; per
// pod the pass classifies and looks its slot up. Unclassified pods land
// on the default slot — the scheduler's single configured pipeline,
// bit-identical to a scheduler with no registry at all. Gang scheduling is not part of any class's pipeline: the cycle
// hands a gang member to the gang director in whichever slot it lands.

// Classifier inference defaults.
const (
	// DefaultLatencyPriority: pods at or above this priority tier are
	// presumed latency-sensitive — operators reserve the high tiers for
	// serving traffic, which is also why the preemption planner treats
	// those tiers as the ones worth evicting for.
	DefaultLatencyPriority = 100
	// DefaultBatchDuration: a declared runtime at or beyond this marks a
	// throughput job. The Borg-derived traces cap eval jobs at 300 s, so
	// five minutes separates "runs to completion" from "serves".
	DefaultBatchDuration = 5 * time.Minute
	// DefaultLatencyMinFeasible is the raised sampling floor of the
	// latency-sensitive class: its candidate search never stops below
	// this many feasible nodes (5× the scheduler default), so a
	// latency-sensitive pod is never placed from a thin sample of a
	// large cluster.
	DefaultLatencyMinFeasible = 5 * DefaultMinFeasibleNodesToFind
)

// ClassifierConfig parameterises a WorkloadClassifier.
type ClassifierConfig struct {
	// Infer enables signal-based classification for pods with no
	// explicit class. Off (the default), unclassified pods stay
	// unclassified and take the scheduler's default pipeline — the
	// bit-identical-compatibility anchor. On, the thresholds are
	// DefaultLatencyPriority and DefaultBatchDuration.
	Infer bool
}

// WorkloadClassifier assigns workload classes to pods. An explicitly
// declared known class always wins; inference (when enabled) reads the
// scheduling-relevant signals the spec already carries — gang
// membership, priority tier, declared runtime, EPC demand — in that
// order of confidence.
type WorkloadClassifier struct {
	cfg ClassifierConfig
}

// NewWorkloadClassifier builds a classifier.
func NewWorkloadClassifier(cfg ClassifierConfig) *WorkloadClassifier {
	return &WorkloadClassifier{cfg: cfg}
}

// Classify returns the pod's workload class. Pods declaring a known
// class keep it. With inference off every other pod is unclassified;
// with it on, gang members are batch (all-or-nothing placement is a
// throughput shape), high-priority pods are latency-sensitive, negative
// tiers are best-effort, long declared runtimes are batch, enclave (EPC)
// jobs are latency-sensitive (scarce EPC makes their queue time the
// expensive one), and everything else is best-effort filler.
func (c *WorkloadClassifier) Classify(pod *api.Pod) api.WorkloadClass {
	if pod.Spec.Classified() {
		return pod.Spec.Class
	}
	if !c.cfg.Infer {
		return api.ClassUnspecified
	}
	if pod.Spec.InGang() {
		return api.ClassBatch
	}
	if pod.Spec.Priority >= DefaultLatencyPriority {
		return api.ClassLatencySensitive
	}
	if pod.Spec.Priority < 0 {
		return api.ClassBestEffort
	}
	if c.maxDuration(pod) >= DefaultBatchDuration {
		return api.ClassBatch
	}
	if pod.IsSGX() {
		return api.ClassLatencySensitive
	}
	return api.ClassBestEffort
}

// maxDuration returns the longest declared container runtime.
func (c *WorkloadClassifier) maxDuration(pod *api.Pod) time.Duration {
	var max time.Duration
	for i := range pod.Spec.Containers {
		if d := pod.Spec.Containers[i].Workload.Duration; d > max {
			max = d
		}
	}
	return max
}

// ClassProfile configures one class's scheduling behaviour in a
// ClassRegistry.
type ClassProfile struct {
	// Class is the workload class this profile serves (must be a known
	// class — the unspecified class always means the default pipeline).
	Class api.WorkloadClass
	// Policy places the class's pods, exactly as Config.Policy does.
	Policy Policy
	// MinFeasibleNodesToFind raises this class's sampling floor (0
	// inherits DefaultMinFeasibleNodesToFind; the sampling percentage is
	// the adaptive one of numFeasibleNodesToFind for every class).
	MinFeasibleNodesToFind int
	// MayPreempt gates whether this class's pods ever evict others. A
	// preempting class additionally gains access to best-effort victims
	// regardless of priority tier (best-effort is always
	// preemption-eligible) — unless it is best-effort itself.
	MayPreempt bool
}

// ClassRegistry routes pods to per-class scheduling profiles. Build one
// with NewClassRegistry and hand it to Config.Classes; a sharded fleet
// passes the same registry to every member (the registry is only read
// after construction, and the policies it holds are stateless values).
type ClassRegistry struct {
	classifier *WorkloadClassifier
	// profiles is indexed by class slot; a nil Policy marks a slot with no
	// profile of its own (always the case for the default slot).
	profiles [api.NumClasses]ClassProfile
}

// NewClassRegistry builds a registry with the default class profiles
// over the given classifier (a nil classifier gets explicit-only
// classification):
//
//   - latency-sensitive: usage-aware scoring (headroom + EPC pressure,
//     SGX-last), may preempt, candidate search never sampled below
//     DefaultLatencyMinFeasible feasible nodes;
//   - batch: bin-packs (SGX-last first-fit), never preempts; a gang
//     member is held for quorum under the scheduler's gang director, as
//     in every other class slot;
//   - best-effort: spreads by load stddev, never preempts — and its
//     bound pods are always preemption-eligible, which the cache
//     tracks from the declared spec class.
func NewClassRegistry(classifier *WorkloadClassifier) *ClassRegistry {
	if classifier == nil {
		classifier = NewWorkloadClassifier(ClassifierConfig{})
	}
	r := &ClassRegistry{classifier: classifier}
	r.set(ClassProfile{
		Class:                  api.ClassLatencySensitive,
		Policy:                 UsageAware{},
		MinFeasibleNodesToFind: DefaultLatencyMinFeasible,
		MayPreempt:             true,
	})
	r.set(ClassProfile{Class: api.ClassBatch, Policy: Binpack{}})
	r.set(ClassProfile{Class: api.ClassBestEffort, Policy: Spread{}})
	return r
}

// set installs (or replaces) one class's profile. Unknown classes and a
// nil policy are ignored — the unspecified class cannot be overridden;
// it is defined as the scheduler's own pipeline.
func (r *ClassRegistry) set(cp ClassProfile) {
	if !cp.Class.Known() || cp.Policy == nil {
		return
	}
	r.profiles[cp.Class.Slot()] = cp
}

// pipeline is one class slot's resolved scheduling behaviour: the
// placement policy, the candidate-sampling bounds and the preemption
// gates. A scheduler holds one per slot, resolved at
// construction, so the pass never re-derives an override.
type pipeline struct {
	policy      Policy
	minFeasible int
	// mayPreempt gates whether the slot's pods ever evict others; takeBE
	// additionally admits declared best-effort pods as victims across
	// priority tiers.
	mayPreempt bool
	takeBE     bool
}

// resolvePipelines builds a scheduler's pipeline table from its Config.
// The default slot is Config.Policy with the default sampling floor, free
// to preempt strictly lower tiers — the exact pre-class pass. A class
// with a registered profile gets that profile's policy, its floor where
// set (0 inherits the default) and its preemption gate; a class without
// one schedules like the default slot (its outcomes are still counted
// under its own slot). The gang protocol is not part of a pipeline, so a
// gang member honours it in whichever slot it is classed (cycle.go).
func resolvePipelines(cfg *Config) [api.NumClasses]pipeline {
	def := pipeline{
		policy:      cfg.Policy,
		minFeasible: DefaultMinFeasibleNodesToFind,
		mayPreempt:  true,
	}
	var table [api.NumClasses]pipeline
	for slot := range table {
		pl := &table[slot]
		*pl = def
		if cfg.Classes == nil || cfg.Classes.profiles[slot].Policy == nil {
			continue
		}
		cp := &cfg.Classes.profiles[slot]
		pl.policy = cp.Policy
		if cp.MinFeasibleNodesToFind != 0 {
			pl.minFeasible = cp.MinFeasibleNodesToFind
		}
		pl.mayPreempt = cp.MayPreempt
		// Preempting classes may displace declared best-effort pods across
		// tiers — unless they are best-effort themselves (no cannibalising
		// the filler tier).
		pl.takeBE = cp.MayPreempt && cp.Class != api.ClassBestEffort
	}
	return table
}
