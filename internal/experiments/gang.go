package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/model"
)

// This file is the gang-scheduling experiment: the Borg backlog replayed
// with k-pod gang jobs (MPI-style units that are useless until every
// member runs) mixed into solo churn, drained by 1/2/4 sharded
// schedulers that share one gang director. Measured: deadlock-freedom
// (the backlog drains — no gang camps on capacity forever and no two
// gangs starve each other), time-to-full-gang (member submission →
// whole-gang commit), and the all-or-nothing invariant — the reference
// model replays the event stream and the run counts the instants any
// gang is partially placed outside its own atomic commit burst (must be
// zero), plus the post-hoc accounting check that permit rollbacks
// returned every held resource.

// The gang backlog's fixed shape. A gang may hold permits below quorum
// for core.DefaultPermitTimeout.
const (
	// gangCount is how many k-pod gang jobs the backlog carries; gangSize
	// is k.
	gangCount = 8
	gangSize  = 4
	// gangSoloJobs interleave ordinary one-pod jobs into the backlog for
	// capacity churn.
	gangSoloJobs = 2 * gangCount
	// gangStdNodes shapes the cluster: tight enough that gangs contend
	// with the solo churn for headroom.
	gangStdNodes = 8
	// gangBindsPerPass is each member's per-pass budget; permits count
	// against it like binds.
	gangBindsPerPass = 4
)

// GangExpConfig parameterises one gang backlog drain.
type GangExpConfig struct {
	Seed int64
	// Shards is the number of schedulers sharing the director (1 when
	// zero).
	Shards int
}

// GangExpResult reports one drain.
type GangExpResult struct {
	Shards   int
	Gangs    int
	GangSize int
	// Completed is the deadlock-freedom verdict: every pod (gang member
	// and solo) left the pending queue and no permit was outstanding
	// before the horizon.
	Completed bool
	DrainTime time.Duration
	// PartialPlacements counts event-stream instants where a gang sat
	// partially placed outside its own atomic commit burst — must be 0.
	PartialPlacements int
	// GangsCommitted / PermitTimeouts are the director's outcome
	// counters; a timeout is recoverable (the gang retries), not a
	// failure.
	GangsCommitted int64
	PermitTimeouts int64
	// MeanTimeToFullGang / MaxTimeToFullGang measure submission →
	// whole-gang commit across the gangs that committed.
	MeanTimeToFullGang time.Duration
	MaxTimeToFullGang  time.Duration
	// Violations counts the watch events the reference model refused
	// (permits charge like binds); LeakedPermits is the post-hoc rollback
	// accounting check — both must be 0.
	Violations    int
	LeakedPermits int
}

// GangDrain submits a Borg-derived backlog of gang and solo jobs at t=0
// and drains it with cfg.Shards schedulers sharing one gang director.
func GangDrain(cfg GangExpConfig) (GangExpResult, error) {
	cfg.Shards = max(cfg.Shards, 1)
	partial := 0
	tb, err := NewTestbed(TestbedConfig{
		Nodes: Fleet(gangStdNodes, 0, 0, false),
		Scheduler: core.Config{
			Name:            "gangsched",
			Policy:          core.Binpack{},
			MaxBindsPerPass: gangBindsPerPass,
		},
		Shards:    cfg.Shards,
		Admission: apiserver.AdmitStrict,
		// A partial gang counts at every accepted event of the gang that
		// finds it so.
		onEvent: func(m *model.Cluster, ev apiserver.WatchEvent, refused error) {
			if refused == nil && ev.Pod != nil && ev.Pod.Spec.InGang() && m.Gangs[ev.Pod.Spec.PodGroup].Partial() {
				partial++
			}
		},
	})
	if err != nil {
		return GangExpResult{}, fmt.Errorf("gang: %w", err)
	}
	defer tb.Close()
	clk, srv, a := tb.Clk, tb.Srv, tb.audit

	// Backlog: the first gangCount trace jobs each shape one gang's
	// members, the next gangSoloJobs stay solo. Every member of a gang
	// requests the same memory (MPI ranks are homogeneous) and sleeps for
	// its job's trace duration.
	trace := borg.NewGenerator(cfg.Seed).EvalSlice()
	for i := 0; i < gangCount; i++ {
		group := fmt.Sprintf("gang-%03d", i)
		for m := 0; m < gangSize; m++ {
			job := TraceJob(fmt.Sprintf("%s-m%d", group, m), trace.Jobs[i], false, false)
			job.Gang, job.GangMinMember = group, gangSize
			if err := tb.Submit(multiSchedPod(job)); err != nil {
				return GangExpResult{}, fmt.Errorf("gang: submitting backlog: %w", err)
			}
		}
	}
	for _, job := range trace.Jobs[gangCount : gangCount+gangSoloJobs] {
		if err := tb.Submit(multiSchedPod(TraceJob(traceJobName(job.ID), job, false, false))); err != nil {
			return GangExpResult{}, fmt.Errorf("gang: submitting backlog: %w", err)
		}
	}

	start := clk.Now()
	completed := clk.Run(func() bool {
		return srv.PendingCount() == 0 && srv.ReservationCount() == 0
	}, start.Add(drainHorizon))

	res := GangExpResult{
		Shards:            cfg.Shards,
		Gangs:             gangCount,
		GangSize:          gangSize,
		Completed:         completed,
		DrainTime:         clk.Now().Sub(start),
		PartialPlacements: partial,
		Violations:        a.violations,
		LeakedPermits:     srv.ReservationCount(),
	}
	ds := tb.Gang.Stats()
	res.GangsCommitted = ds.Commits
	res.PermitTimeouts = ds.Timeouts
	var sum time.Duration
	n := 0
	for _, g := range a.Gangs {
		if d := g.FullAt.Sub(g.SubmittedAt); !g.FullAt.IsZero() {
			sum += d
			res.MaxTimeToFullGang = max(res.MaxTimeToFullGang, d)
			n++
		}
	}
	if n > 0 {
		res.MeanTimeToFullGang = sum / time.Duration(n)
	}
	return res, nil
}

// GangScenario drains the same seeded gang backlog with 1, 2 and 4
// schedulers sharing a director per run.
func GangScenario(seed int64) ([]GangExpResult, error) {
	var out []GangExpResult
	for _, shards := range []int{1, 2, 4} {
		res, err := GangDrain(GangExpConfig{Seed: seed, Shards: shards})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
