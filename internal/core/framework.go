package core

import (
	"math"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// This file implements the scheduler's plugin framework: a Kubernetes-style
// placement pipeline after the one §IV feasibility rule (NodeView.Fits,
// hardware compatibility and saturation, which every pipeline applies as
// is): pre-score plugins (candidate-narrowing preferences, §IV's "only
// resort to SGX-enabled nodes ... when no other choice is possible") and
// weighted score plugins (placement quality). The paper's fixed
// binpack/spread strategies are expressed as profiles over these plugins,
// so new placement behaviours (usage-headroom, EPC-pressure, priority
// tiers) compose without touching the scheduling pass. How a placement
// commits is not a plug point: the cycle binds it, or, for a gang member
// under a gang director (Config.Gang), reserves it (gang.go).

// PodInfo carries one pending pod together with its request data, summed
// over the pod's containers once per queue entry so the per-(pod, node)
// fit checks and plugin calls read scalars. The cycle refills it for every
// pod, so what a stage writes into it (the gang director's age boost of
// Priority) lasts for that pod's cycle only.
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
	// scratch is the narrowing and score scratch of the cycle this pod is
	// being scheduled in (see cycleScratch).
	scratch *cycleScratch
}

// cycleScratch is the pipeline scratch of one scheduling cycle: a
// narrowing buffer per pre-score plugin slot (plugin i's result may be
// plugin i+1's input, so slots never alias) and one score accumulator per
// candidate. It belongs to whoever runs the cycle — a Scheduler's cycle
// state keeps one PodInfo, and with it one scratch, for all its passes —
// and the plugins reach it through the PodInfo they already receive.
// Keeping it out of the plugins is what makes plugins and profiles
// immutable values a whole fleet can share.
type cycleScratch struct {
	narrow [][]*NodeView
	slot   int // the running pre-score plugin's index into narrow
	scores []float64
}

// cycleScratch returns the pod's cycle scratch, created on first use and
// then kept across refills (fillPodInfo) — so a PodInfo built outside a
// scheduler (a literal) works on a private one.
func (p *PodInfo) cycleScratch() *cycleScratch {
	if p.scratch == nil {
		p.scratch = &cycleScratch{}
	}
	return p.scratch
}

// narrow returns the candidates keep accepts, in order, in the running
// pre-score plugin's slot of the cycle scratch — valid until that slot
// runs again, i.e. for the rest of this pod's cycle.
func (p *PodInfo) narrow(candidates []*NodeView, keep func(*NodeView) bool) []*NodeView {
	sc := p.cycleScratch()
	for len(sc.narrow) <= sc.slot {
		sc.narrow = append(sc.narrow, nil)
	}
	kept := sc.narrow[sc.slot][:0]
	for _, c := range candidates {
		if keep(c) {
			kept = append(kept, c)
		}
	}
	sc.narrow[sc.slot] = kept
	return kept
}

// fillPodInfo populates info in place from a pod and its request totals,
// keeping its cycle scratch.
func fillPodInfo(info *PodInfo, pod *api.Pod, req resource.List) {
	*info = PodInfo{Pod: pod, Req: req, Priority: pod.Spec.Priority, scratch: info.scratch}
	info.EPCPages = info.Req[resource.EPCPages]
	info.SGX = info.EPCPages > 0
}

// Sampled-scoring defaults (see Config.PercentageNodesToScore).
const (
	// DefaultMinFeasibleNodesToFind floors the adaptive sample size: no
	// matter how small the percentage, a search keeps going until it has
	// this many feasible candidates (or runs out of nodes) — kube-
	// scheduler's minFeasibleNodesToFind.
	DefaultMinFeasibleNodesToFind = 100
	// samplingMinClusterSize: clusters at or below this size always score
	// every node, so sampling never changes behaviour for the paper-scale
	// testbeds (§VI runs tens of nodes).
	samplingMinClusterSize = 100
)

// numFeasibleNodesToFind returns how many feasible candidates one pod's
// search should stop after, given the configured percentage (0 =
// adaptive, >=100 = all) and the cluster size. The adaptive default
// mirrors kube-scheduler's percentageOfNodesToScore: 50% shrinking
// linearly with cluster size down to a 5% floor, full scan at or below
// samplingMinClusterSize nodes.
func numFeasibleNodesToFind(pct, minFeasible, numNodes int) int {
	if pct <= 0 {
		if numNodes <= samplingMinClusterSize {
			return numNodes
		}
		pct = 50 - numNodes/125
		if pct < 5 {
			pct = 5
		}
	}
	if pct >= 100 {
		return numNodes
	}
	k := numNodes * pct / 100
	if k < minFeasible {
		k = minFeasible
	}
	if k > numNodes {
		k = numNodes
	}
	return k
}

// PreScorePlugin narrows the feasible candidates by preference before
// scoring. Returning nil means "no preference": the caller keeps the
// full candidate list. Returning a non-nil slice — including a non-nil
// empty one — replaces the candidates, so an empty non-nil result
// declines every candidate and the profile reports the pod unplaceable.
type PreScorePlugin interface {
	Name() string
	PreScore(pod *PodInfo, candidates []*NodeView) []*NodeView
}

// ScorePlugin rates one feasible candidate; higher is better. The node
// with the greatest weighted score sum wins, ties broken by candidate
// order (nodes arrive sorted by name, §IV's consistent order).
type ScorePlugin interface {
	Name() string
	Score(pod *PodInfo, node *NodeView, view *ClusterView) float64
}

// WeightedScore attaches a weight to a score plugin; the node score is the
// weight-scaled sum across plugins.
type WeightedScore struct {
	Plugin ScorePlugin
	Weight float64
}

// Profile is one assembled scheduling pipeline, immutable once built: its
// plugins hold no state of their own (per-cycle scratch travels with the
// PodInfo), so one Profile may serve any number of schedulers
// concurrently. Feasibility is not a plug point: every profile filters by
// the §IV rule, NodeView.Fits. A *Profile is a Policy that yields itself,
// so custom profiles plug into Config.Policy directly; the built-in
// Binpack/Spread/LeastRequested/UsageAware values are names for canned
// profiles.
type Profile struct {
	name     string
	preScore []PreScorePlugin
	scores   []WeightedScore
	// minScore rejects candidates scoring at or below it (LeastRequested's
	// historical "-1.0 or worse declines" contract); defaults to -Inf.
	minScore float64
}

// ProfileOpt configures a Profile.
type ProfileOpt func(*Profile)

// WithPreScore appends candidate-narrowing preference plugins.
func WithPreScore(plugins ...PreScorePlugin) ProfileOpt {
	return func(p *Profile) { p.preScore = append(p.preScore, plugins...) }
}

// WithScores appends weighted score plugins.
func WithScores(scores ...WeightedScore) ProfileOpt {
	return func(p *Profile) { p.scores = append(p.scores, scores...) }
}

// WithMinScore rejects candidates whose weighted score sum is at or below
// min.
func WithMinScore(min float64) ProfileOpt {
	return func(p *Profile) { p.minScore = min }
}

// NewProfile assembles a pipeline. Every profile places only on nodes the
// §IV rule (NodeView.Fits) accepts; options append preferences and scores.
func NewProfile(name string, opts ...ProfileOpt) *Profile {
	p := &Profile{name: name, minScore: math.Inf(-1)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements Policy.
func (p *Profile) Name() string { return p.name }

// Profile implements Policy: a profile is its own pipeline.
func (p *Profile) Profile() *Profile { return p }

// selectInfo runs the placement half of the pipeline for one pod: narrow
// by preference, score, and pick the first candidate with the strictly
// greatest weighted score above the profile's minimum. Every candidate
// already passes NodeView.Fits; the full scan hands them over sorted by
// node name. Scoring runs plugin-outer over one accumulator per candidate
// in the pod's cycle scratch, so a detailed pass times each score plugin
// across the whole candidate set in one clock-read pair; every
// candidate's sum still accumulates in plugin order, which keeps the
// selection — floating-point rounding and first-best tie-breaks included
// — what a candidate-outer loop computes. det is the pass recorder on
// detail-sampled passes and nil on all others (and with telemetry off), so
// per-plugin timing costs an undetailed pass a nil check.
func (p *Profile) selectInfo(pod *PodInfo, candidates []*NodeView, view *ClusterView, det *passRecorder) (string, bool) {
	sc := pod.cycleScratch()
	for i, ps := range p.preScore {
		sc.slot = i
		t0 := det.now()
		narrowed := ps.PreScore(pod, candidates)
		if det != nil {
			det.addPlugin(stageScore, ps.Name(), t0)
		}
		// nil = no preference; non-nil (even empty) replaces the list.
		if narrowed != nil {
			candidates = narrowed
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	// The compiler turns append(make) into grow-and-clear: no temporary.
	scores := append(sc.scores[:0], make([]float64, len(candidates))...)
	sc.scores = scores
	for _, ws := range p.scores {
		t0 := det.now()
		for i, cand := range candidates {
			scores[i] += ws.Weight * ws.Plugin.Score(pod, cand, view)
		}
		if det != nil {
			det.addPlugin(stageScore, ws.Plugin.Name(), t0)
		}
	}
	best := ""
	bestScore := p.minScore
	for i, cand := range candidates {
		if scores[i] > bestScore {
			best = cand.Name
			bestScore = scores[i]
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}

// --- Pre-score plugins ---

// SGXLastPreScore restricts standard pods to non-SGX candidates when any
// exist: both paper policies "only resort to SGX-enabled nodes for non-SGX
// jobs when no other choice is possible" (§IV).
type SGXLastPreScore struct{}

// Name implements PreScorePlugin.
func (SGXLastPreScore) Name() string { return "sgx-last" }

// PreScore implements PreScorePlugin. This is a preference, not a hard
// rule: with no non-SGX candidate it reports no preference (nil) and the
// pod may use SGX hardware as the last resort.
func (SGXLastPreScore) PreScore(pod *PodInfo, candidates []*NodeView) []*NodeView {
	if pod.SGX {
		return nil
	}
	nonSGX := pod.narrow(candidates, func(n *NodeView) bool { return !n.SGX })
	if len(nonSGX) == 0 {
		return nil
	}
	return nonSGX
}

// MemoryCapacityPreScore drops candidates without memory capacity — the
// request-only baseline cannot rank a node it cannot compute a memory
// fraction for.
type MemoryCapacityPreScore struct{}

// Name implements PreScorePlugin.
func (MemoryCapacityPreScore) Name() string { return "memory-capacity" }

// PreScore implements PreScorePlugin. Unlike SGXLastPreScore this narrows
// unconditionally: with no memory-capable candidate the empty result makes
// the profile decline, preserving LeastRequested's historical contract.
func (MemoryCapacityPreScore) PreScore(pod *PodInfo, candidates []*NodeView) []*NodeView {
	capable := pod.narrow(candidates, func(n *NodeView) bool { return n.Allocatable.Get(resource.Memory) > 0 })
	if len(capable) == 0 {
		// An explicit decline: a non-nil empty slice (the scratch slot is
		// still nil before its first append) so the profile does not
		// mistake it for "no preference".
		return []*NodeView{}
	}
	return capable
}

// --- Score plugins ---

// BinpackScore reproduces the §IV binpack strategy as a score: all nodes
// tie, so the first candidate in the consistent by-name order wins —
// "the scheduler always tries to fit as many jobs as possible on the same
// node". Standard pods are steered off SGX hardware by SGXLastPreScore,
// not here.
type BinpackScore struct{}

// Name implements ScorePlugin.
func (BinpackScore) Name() string { return "binpack" }

// Score implements ScorePlugin.
func (BinpackScore) Score(*PodInfo, *NodeView, *ClusterView) float64 { return 0 }

// SpreadScore reproduces the §IV spread strategy: the hypothetical
// placement minimising the population standard deviation of load on the
// pod's contended resource scores highest (score is the negated stddev).
type SpreadScore struct{}

// Name implements ScorePlugin.
func (SpreadScore) Name() string { return "spread" }

// Score implements ScorePlugin.
func (SpreadScore) Score(pod *PodInfo, node *NodeView, view *ClusterView) float64 {
	res := resource.Memory
	if pod.SGX {
		res = resource.EPCPages
	}
	return -hypotheticalStdDev(view, node.Name, res, pod.Req[res])
}

// LeastRequestedScore mirrors the request-only scoring of Kubernetes'
// default scheduler: the free memory fraction after placement.
type LeastRequestedScore struct{}

// Name implements ScorePlugin.
func (LeastRequestedScore) Name() string { return "least-requested" }

// Score implements ScorePlugin.
func (LeastRequestedScore) Score(pod *PodInfo, node *NodeView, _ *ClusterView) float64 {
	capMem := node.Allocatable[resource.Memory]
	if capMem <= 0 {
		return math.Inf(-1)
	}
	free := capMem - node.Used[resource.Memory] - pod.Req[resource.Memory]
	return float64(free) / float64(capMem)
}

// UsageHeadroomScore rewards nodes with the most measured headroom on the
// pod's contended resource. Used is the fused window-peak usage from
// monitor.WindowMax, so this plugin makes the scheduler chase actual free
// capacity rather than request accounting — the HEATS-style
// heterogeneity-aware axis.
type UsageHeadroomScore struct{}

// Name implements ScorePlugin.
func (UsageHeadroomScore) Name() string { return "usage-headroom" }

// Score implements ScorePlugin.
func (UsageHeadroomScore) Score(pod *PodInfo, node *NodeView, _ *ClusterView) float64 {
	res := resource.Memory
	if pod.SGX {
		res = resource.EPCPages
	}
	alloc := node.Allocatable[res]
	if alloc <= 0 {
		return 0
	}
	free := alloc - node.Used[res] - pod.Req[res]
	if free < 0 {
		free = 0
	}
	return float64(free) / float64(alloc)
}

// EPCPressureScore penalises placements on nodes whose scarce EPC is
// already under measured pressure: standard pods score 0 everywhere (they
// never touch EPC), SGX pods score the negated EPC load fraction. Pairing
// it with UsageHeadroomScore keeps EPC hogs from concentrating.
type EPCPressureScore struct{}

// Name implements ScorePlugin.
func (EPCPressureScore) Name() string { return "epc-pressure" }

// Score implements ScorePlugin.
func (EPCPressureScore) Score(pod *PodInfo, node *NodeView, _ *ClusterView) float64 {
	if !pod.SGX || !node.SGX {
		return 0
	}
	alloc := node.Allocatable.Get(resource.EPCPages)
	if alloc <= 0 {
		return 0
	}
	return -float64(node.Used.Get(resource.EPCPages)) / float64(alloc)
}
