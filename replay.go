package sgxorch

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/experiments"
)

// Re-exported experiment types, so downstream users can run the paper's
// evaluation through the public API.
type (
	// Figure is one reproduced paper figure (series + notes).
	Figure = experiments.Figure
	// Series is one labelled curve of a Figure.
	Series = experiments.Series
	// Point is one sample of a Series.
	Point = experiments.Point
	// ReplayResult aggregates a Borg trace replay.
	ReplayResult = experiments.ReplayResult
	// JobOutcome is the per-job result of a replay.
	JobOutcome = experiments.JobOutcome
	// BorgTrace is a Google-Borg-style job trace.
	BorgTrace = borg.Trace
	// BorgJob is one trace record.
	BorgJob = borg.Job
)

// GenerateBorgEvalSlice generates the paper's §VI-B replay input: the
// 6480-10080 s window of a synthetic Borg trace after 1-in-1200 sampling —
// 663 jobs over one hour, 44 of them over-allocating.
func GenerateBorgEvalSlice(seed int64) *BorgTrace {
	return borg.NewGenerator(seed).EvalSlice()
}

// GenerateBorgDay generates a synthetic 24 h Borg trace with n jobs,
// calibrated to the published distributions (Figs. 3-5).
func GenerateBorgDay(seed int64, n int) *BorgTrace {
	return borg.NewGenerator(seed).FullDay(n)
}

// ReplayOptions configures a Borg trace replay on the paper's testbed.
type ReplayOptions struct {
	// Trace is the replay input (GenerateBorgEvalSlice(Seed) when nil).
	Trace *BorgTrace
	// Seed drives trace generation and the SGX job designation.
	Seed int64
	// SGXRatio is the fraction of jobs designated SGX-enabled, in [0,1].
	SGXRatio float64
	// Policy selects the placement strategy (binpack by default).
	Policy Policy
	// EPCSize is the SGX machines' PRM size (128 MiB when 0; negative is
	// an error); Fig. 7 sweeps 32-256 MiB.
	EPCSize int64
	// DisableMetrics turns off usage-aware scheduling.
	DisableMetrics bool
	// DisableEnforcement turns off driver-level EPC limit enforcement.
	DisableEnforcement bool
	// MaliciousPerSGXNode deploys Fig. 11's malicious containers: each
	// declares one EPC page and allocates MaliciousEPCFraction of its
	// node's usable EPC.
	MaliciousPerSGXNode  int
	MaliciousEPCFraction float64
	// Horizon caps the simulation (24 h by default).
	Horizon time.Duration
}

// ReplayBorgTrace replays a Borg trace slice through the full stack on
// the paper's 5-machine testbed and returns per-job outcomes. A watch
// event the reference model refuses (an EPC over-commit, say) fails it.
func ReplayBorgTrace(opts ReplayOptions) (*ReplayResult, error) {
	policy, err := opts.Policy.corePolicy()
	if err != nil {
		return nil, err
	}
	if opts.EPCSize < 0 {
		return nil, fmt.Errorf("sgxorch: negative EPCSize %d", opts.EPCSize)
	}
	if opts.Horizon <= 0 {
		opts.Horizon = 24 * time.Hour
	}
	cfg := experiments.Paper(opts.EPCSize)
	cfg.Scheduler.Policy = policy
	cfg.Scheduler.UseMetrics = !opts.DisableMetrics
	cfg.NoEnforcement = opts.DisableEnforcement
	tb, err := experiments.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	trace := opts.Trace
	if trace == nil {
		trace = GenerateBorgEvalSlice(opts.Seed)
	}
	return tb.Replay(experiments.ReplayConfig{
		Trace:                trace,
		SGXRatio:             opts.SGXRatio,
		Seed:                 opts.Seed,
		MaliciousPerSGXNode:  opts.MaliciousPerSGXNode,
		MaliciousEPCFraction: opts.MaliciousEPCFraction,
		Horizon:              opts.Horizon,
	})
}

// ReproduceFigure regenerates one of the paper's evaluation figures by ID
// ("fig3" through "fig11").
func ReproduceFigure(id string, seed int64) (Figure, error) {
	switch id {
	case "fig3":
		return experiments.Fig3MemoryCDF(seed, 20000), nil
	case "fig4":
		return experiments.Fig4DurationCDF(seed, 20000), nil
	case "fig5":
		return experiments.Fig5Concurrency(seed, 10*time.Minute), nil
	case "fig6":
		return experiments.Fig6Startup(seed, 60), nil
	case "fig7":
		return experiments.Fig7PendingQueue(seed)
	case "fig8":
		return experiments.Fig8WaitCDF(seed)
	case "fig9":
		return experiments.Fig9WaitByRequest(seed)
	case "fig10":
		return experiments.Fig10Turnaround(seed)
	case "fig11":
		return experiments.Fig11Malicious(seed)
	default:
		return Figure{}, fmt.Errorf("sgxorch: unknown figure %q (fig3..fig11)", id)
	}
}

// FigureIDs lists the reproducible figures in order.
func FigureIDs() []string {
	return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
}
