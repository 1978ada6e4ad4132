package core

import (
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// Policy names a placement strategy and yields its pipeline: the
// strategy's preference and scoring plugins, assembled over the plugin
// framework (see framework.go), placing only where the §IV filter
// (NodeView.Fits) accepts. The scheduler asks once, at construction, and
// runs every pod through the profile it got. The built-in policies build
// their canned profile on demand; a *Profile is a Policy that yields
// itself, which is how custom pipelines plug into Config.Policy. Profiles
// are immutable, so one value may be handed to any number of schedulers.
type Policy interface {
	Name() string
	Profile() *Profile
}

// Binpack implements the §IV binpack strategy: "the scheduler always tries
// to fit as many jobs as possible on the same node. As soon as its
// resources become insufficient, the scheduler advances to the next node
// in the pool." Node order is the consistent by-name order, with SGX
// nodes sorted last for standard jobs to preserve their EPC.
type Binpack struct{}

// Name implements Policy.
func (Binpack) Name() string { return "binpack" }

// Profile implements Policy: the SGX-last preference plus the all-tie
// binpack score, so the first feasible node in the fixed order wins.
func (Binpack) Profile() *Profile {
	return NewProfile("binpack",
		WithPreScore(SGXLastPreScore{}),
		WithScores(WeightedScore{Plugin: BinpackScore{}, Weight: 1}),
	)
}

// Spread implements the §IV spread strategy: "the main goal of the spread
// strategy is to even out the load across all nodes. It works by choosing
// job-node combinations that yield the smallest standard deviation of
// load across the nodes."
type Spread struct{}

// Name implements Policy.
func (Spread) Name() string { return "spread" }

// Profile implements Policy: SGX-last preference, then the negated
// hypothetical load stddev as the score. Load is measured on the pod's
// contended resource — EPC fraction across SGX nodes for SGX jobs, memory
// fraction otherwise. Ties break on node-name order, keeping runs
// deterministic.
func (Spread) Profile() *Profile {
	return NewProfile("spread",
		WithPreScore(SGXLastPreScore{}),
		WithScores(WeightedScore{Plugin: SpreadScore{}, Weight: 1}),
	)
}

// hypotheticalStdDev computes the load stddev across the nodes holding
// the resource, with extra added onto target.
func hypotheticalStdDev(view *ClusterView, target string, res resource.Name, extra int64) float64 {
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
	return stats.PopStdDev(loads)
}

// LeastRequested mirrors the request-only scoring of Kubernetes' default
// scheduler (§V-B deploys it side by side with the SGX-aware one). It is
// the baseline for the ablation benchmarks: no SGX-last ordering and no
// usage metrics, so it demonstrates what SGX-awareness buys.
type LeastRequested struct{}

// Name implements Policy.
func (LeastRequested) Name() string { return "least-requested" }

// Profile implements Policy: candidates without memory capacity are
// dropped, the rest score their free memory fraction after placement. The
// -1 floor preserves the historical contract that a node more than fully
// committed past its capacity is declined rather than ranked.
func (LeastRequested) Profile() *Profile {
	return NewProfile("least-requested",
		WithPreScore(MemoryCapacityPreScore{}),
		WithScores(WeightedScore{Plugin: LeastRequestedScore{}, Weight: 1}),
		WithMinScore(-1),
	)
}

// UsageAware is a framework-native policy with no counterpart in the
// paper: it keeps the SGX-last rule but scores placements by measured
// usage headroom combined with an EPC-pressure penalty, so SGX-heavy load
// spreads away from nodes whose enclave pages are already hot. It
// demonstrates what the plugin pipeline buys over the fixed strategies.
type UsageAware struct{}

// Name implements Policy.
func (UsageAware) Name() string { return "usage-aware" }

// Profile implements Policy.
func (UsageAware) Profile() *Profile {
	return NewProfile("usage-aware",
		WithPreScore(SGXLastPreScore{}),
		WithScores(
			WeightedScore{Plugin: UsageHeadroomScore{}, Weight: 1},
			WeightedScore{Plugin: EPCPressureScore{}, Weight: 0.5},
		),
	)
}
