package core

import (
	"math"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// This file implements the scheduler's plugin framework: a Kubernetes-style
// pipeline of filter plugins (hard feasibility, §IV's hardware and
// saturation checks), pre-score plugins (candidate-narrowing preferences,
// §IV's "only resort to SGX-enabled nodes ... when no other choice is
// possible") and weighted score plugins (placement quality). The paper's
// fixed binpack/spread strategies are expressed as profiles over these
// plugins, so new placement behaviours (usage-headroom, EPC-pressure,
// priority tiers) compose without touching the scheduling pass.

// PodInfo carries one pending pod together with its request data, summed
// over the pod's containers once per pod per pass so the per-(pod, node)
// plugin calls read scalars.
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

// fillPodInfo populates info in place, keeping its cycle scratch.
func fillPodInfo(info *PodInfo, pod *api.Pod) {
	*info = PodInfo{Pod: pod, Req: pod.TotalRequests(), Priority: pod.Spec.Priority, scratch: info.scratch}
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
	if minFeasible <= 0 {
		minFeasible = DefaultMinFeasibleNodesToFind
	}
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

// PreFilterPlugin runs once per pod per pass, before any per-node work.
// Returning false rejects the pass for this pod early — the pod stays
// queued and is retried later — which is how gang scheduling skips a
// member whose co-members cannot possibly fit this pass instead of
// taking a permit that would only be rolled back. PreFilter may mutate
// the PodInfo (e.g. a starvation-prevention priority boost); the
// mutation is scoped to this pass, never written back to the pod.
type PreFilterPlugin interface {
	Name() string
	PreFilter(pod *PodInfo, view *ClusterView) bool
}

// PermitDecision is a PermitPlugin's verdict on a selected placement.
type PermitDecision int

const (
	// PermitAllow binds the pod immediately (the default for every pod
	// when no permit plugin objects).
	PermitAllow PermitDecision = iota
	// PermitWait converts the bind into a conditional reservation
	// (apiserver.Reserve): capacity commits on the node but the pod
	// waits in the permit area until its gang reaches quorum
	// (CommitGroup) or times out (ReleaseGroup).
	PermitWait
	// PermitDeny refuses the placement outright; the pod stays queued.
	PermitDeny
)

// PermitPlugin runs after a node has been selected and decides how the
// placement commits. The first non-Allow decision wins. Plugins that
// also implement ReserveObserver are notified after a PermitWait
// reservation actually commits on the API server — the hook the gang
// director uses to count permits toward quorum.
type PermitPlugin interface {
	Name() string
	Permit(pod *PodInfo, nodeName string) PermitDecision
}

// ReserveObserver is an optional PermitPlugin extension: OnReserved is
// called (outside any scheduler lock) after the pod's reservation
// committed on the API server. The observer may call back into the
// server (e.g. CommitGroup when quorum is reached).
type ReserveObserver interface {
	OnReserved(pod *PodInfo, nodeName string)
}

// FilterPlugin decides hard feasibility of one (pod, node) combination.
// Filters run for every candidate node each pass, so implementations must
// not allocate.
type FilterPlugin interface {
	Name() string
	Filter(pod *PodInfo, node *NodeView) bool
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
// concurrently. A *Profile is a Policy that yields itself, so custom
// profiles plug into Config.Policy directly; the built-in
// Binpack/Spread/LeastRequested/UsageAware values are names for canned
// profiles.
type Profile struct {
	name       string
	preFilters []PreFilterPlugin
	filters    []FilterPlugin
	preScore   []PreScorePlugin
	scores     []WeightedScore
	permits    []PermitPlugin
	// minScore rejects candidates scoring at or below it (LeastRequested's
	// historical "-1.0 or worse declines" contract); defaults to -Inf.
	minScore float64
}

// ProfileOpt configures a Profile.
type ProfileOpt func(*Profile)

// WithFilters appends extra filter plugins after the default §IV
// feasibility set (SGX capability, EPC device fit, resource saturation).
func WithFilters(filters ...FilterPlugin) ProfileOpt {
	return func(p *Profile) { p.filters = append(p.filters, filters...) }
}

// WithPermits appends permit plugins (run after node selection, deciding
// whether the placement binds immediately, waits, or is denied).
func WithPermits(plugins ...PermitPlugin) ProfileOpt {
	return func(p *Profile) { p.permits = append(p.permits, plugins...) }
}

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

// NewProfile assembles a pipeline. Every profile starts from the default
// §IV feasibility filter; options append preferences and scores.
func NewProfile(name string, opts ...ProfileOpt) *Profile {
	p := &Profile{
		name:     name,
		filters:  []FilterPlugin{DefaultFeasibility{}},
		minScore: math.Inf(-1),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements Policy.
func (p *Profile) Name() string { return p.name }

// Profile implements Policy: a profile is its own pipeline.
func (p *Profile) Profile() *Profile { return p }

// withGang returns a copy of p with the director's PreFilter and Permit
// plugins appended (p itself when there is no director); p — possibly
// caller-owned and shared with other schedulers — is left as built. The
// capped slices force append to copy rather than write into p's backing
// arrays.
func (p *Profile) withGang(d *GangDirector) *Profile {
	if d == nil {
		return p
	}
	c := *p
	c.preFilters = append(p.preFilters[:len(p.preFilters):len(p.preFilters)], d)
	c.permits = append(p.permits[:len(p.permits):len(p.permits)], d)
	return &c
}

// The stage runners below are the one pipeline every pass takes. det is
// the pass recorder on detail-sampled passes and nil on all others (and
// with telemetry off): per-plugin timing happens inside the stages,
// behind that nil check, instead of in a second copy of them.

// runPreFilter runs the pre-filter stage; false rejects the pod's pass.
func (p *Profile) runPreFilter(pod *PodInfo, view *ClusterView, det *passRecorder) bool {
	for _, pf := range p.preFilters {
		t0 := det.now()
		ok := pf.PreFilter(pod, view)
		if det != nil {
			det.addPlugin(stagePreFilter, pf.Name(), t0)
		}
		if !ok {
			return false
		}
	}
	return true
}

// runPermit runs the permit stage for a selected placement; the first
// non-Allow decision wins.
func (p *Profile) runPermit(pod *PodInfo, nodeName string, det *passRecorder) PermitDecision {
	for _, pp := range p.permits {
		t0 := det.now()
		d := pp.Permit(pod, nodeName)
		if det != nil {
			det.addPlugin(stagePermit, pp.Name(), t0)
		}
		if d != PermitAllow {
			return d
		}
	}
	return PermitAllow
}

// notifyReserved tells permit plugins implementing ReserveObserver that
// the pod's reservation committed. Called outside server and scheduler
// locks, so observers may call back into the API server.
func (p *Profile) notifyReserved(pod *PodInfo, nodeName string) {
	for _, pp := range p.permits {
		if obs, ok := pp.(ReserveObserver); ok {
			obs.OnReserved(pod, nodeName)
		}
	}
}

// Feasible runs the filter pipeline for one (pod, node) combination.
func (p *Profile) Feasible(pod *PodInfo, node *NodeView) bool {
	for _, f := range p.filters {
		if !f.Filter(pod, node) {
			return false
		}
	}
	return true
}

// selectInfo runs the placement half of the pipeline for one pod: narrow
// by preference, score, and pick the first candidate with the strictly
// greatest weighted score above the profile's minimum. Candidates arrive
// pre-filtered and sorted by node name. Scoring runs plugin-outer over one
// accumulator per candidate in the pod's cycle scratch, so a detailed pass
// times each score plugin across the whole candidate set in one clock-read
// pair; every candidate's sum still accumulates in plugin order, which
// keeps the selection — floating-point rounding and first-best tie-breaks
// included — what a candidate-outer loop computes.
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

// --- Filter plugins (the §IV feasibility checks) ---

// DefaultFeasibility is the §IV feasibility rule — SGX capability, EPC
// device fit, resource saturation — as a filter plugin: NodeView.Fits on
// the pod's request totals. It is the only filter any profile registers.
type DefaultFeasibility struct{}

// Name implements FilterPlugin.
func (DefaultFeasibility) Name() string { return "default-feasibility" }

// Filter implements FilterPlugin.
func (DefaultFeasibility) Filter(pod *PodInfo, node *NodeView) bool { return node.Fits(pod.Req) }

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
