package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stack"
)

// This file is the gang-scheduling experiment: the Borg backlog replayed
// with k-pod gang jobs (MPI-style units that are useless until every
// member runs) mixed into solo churn, drained by 1/2/4 sharded
// schedulers that share one gang director. Measured: deadlock-freedom
// (the backlog drains — no gang camps on capacity forever and no two
// gangs starve each other), time-to-full-gang (member submission →
// whole-gang commit), and the all-or-nothing invariant — a watch
// subscriber replays the event stream and counts the instants any gang
// is partially placed outside its own atomic commit burst (must be
// zero), plus the post-hoc accounting check that permit rollbacks
// returned every held resource.

// GangExpConfig parameterises one gang backlog drain.
type GangExpConfig struct {
	Seed   int64
	Shards int
	// Gangs is how many k-pod gang jobs the backlog carries (8 by
	// default); GangSize is k (4 by default).
	Gangs    int
	GangSize int
	// SoloJobs interleave ordinary one-pod jobs into the backlog for
	// capacity churn (2× Gangs by default).
	SoloJobs int
	// StdNodes shapes the cluster (8 by default — tight enough that
	// gangs contend with the solo churn for headroom).
	StdNodes int
	// MaxBindsPerPass is each member's per-pass budget (4 by default;
	// permits count against it like binds).
	MaxBindsPerPass int
	// Interval is the scheduling period (5 s default).
	Interval time.Duration
	// PermitTimeout bounds how long a gang may hold permits below quorum
	// (30 s default).
	PermitTimeout time.Duration
	// Horizon caps the simulation (2 h default).
	Horizon time.Duration
}

func (c GangExpConfig) withDefaults() GangExpConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Gangs <= 0 {
		c.Gangs = 8
	}
	if c.GangSize <= 0 {
		c.GangSize = 4
	}
	if c.SoloJobs < 0 {
		c.SoloJobs = 0
	} else if c.SoloJobs == 0 {
		c.SoloJobs = 2 * c.Gangs
	}
	if c.StdNodes <= 0 {
		c.StdNodes = 8
	}
	if c.MaxBindsPerPass <= 0 {
		c.MaxBindsPerPass = 4
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.PermitTimeout <= 0 {
		c.PermitTimeout = 30 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	return c
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
	// Violations counts capacity-invariant breaches re-derived from the
	// watch stream (permits charge like binds); LeakedPermits is the
	// post-hoc rollback accounting check — both must be 0.
	Violations    int
	LeakedPermits int
}

// gangWatcher replays the watch stream as it arrives and checks the
// all-or-nothing invariant: outside a commit burst (permits still
// outstanding), a gang is either fully placed — bound plus already
// finished members cover MinMember — or absent. It also records each
// gang's first full commit for the time-to-full-gang metric.
type gangWatcher struct {
	clk       clock.Clock
	minMember map[string]int
	submitted map[string]time.Time
	held      map[string]map[string]bool
	bound     map[string]map[string]bool
	terminal  map[string]map[string]bool
	fullAt    map[string]time.Time
	partial   int
}

func newGangWatcher(clk clock.Clock) *gangWatcher {
	return &gangWatcher{
		clk:       clk,
		minMember: make(map[string]int),
		submitted: make(map[string]time.Time),
		held:      make(map[string]map[string]bool),
		bound:     make(map[string]map[string]bool),
		terminal:  make(map[string]map[string]bool),
		fullAt:    make(map[string]time.Time),
	}
}

func (w *gangWatcher) member(m map[string]map[string]bool, g string) map[string]bool {
	s := m[g]
	if s == nil {
		s = make(map[string]bool)
		m[g] = s
	}
	return s
}

func (w *gangWatcher) onEvent(ev apiserver.WatchEvent) {
	if ev.Pod == nil || !ev.Pod.Spec.InGang() {
		return
	}
	g := ev.Pod.Spec.PodGroup
	name := ev.Pod.Name
	switch ev.Type {
	case apiserver.PodCreated:
		if _, ok := w.submitted[g]; !ok {
			w.submitted[g] = w.clk.Now()
			w.minMember[g] = ev.Pod.Spec.GangMinMember()
		}
		return
	case apiserver.PodPermitHeld:
		w.member(w.held, g)[name] = true
	case apiserver.PodPermitReleased:
		delete(w.held[g], name)
	case apiserver.PodBound:
		delete(w.held[g], name)
		w.member(w.bound, g)[name] = true
	case apiserver.PodUpdated:
		if ev.Pod.IsTerminal() {
			delete(w.bound[g], name)
			delete(w.held[g], name)
			w.member(w.terminal, g)[name] = true
		} else if ev.Pod.Spec.NodeName == "" {
			delete(w.bound[g], name) // preempted
		}
	default:
		return
	}
	// Settled gang (no permits outstanding): all-or-nothing. Bound plus
	// finished members must cover the group, or nothing may be placed.
	placed := len(w.bound[g])
	if len(w.held[g]) == 0 && placed > 0 && placed+len(w.terminal[g]) < w.minMember[g] {
		w.partial++
	}
	if placed >= w.minMember[g] {
		if _, ok := w.fullAt[g]; !ok {
			w.fullAt[g] = w.clk.Now()
		}
	}
}

// gangPodFromJob shapes one gang member from a trace job: every member
// of a gang requests the same memory (MPI ranks are homogeneous) and
// sleeps for the job's trace duration.
func gangPodFromJob(job borg.Job, name, group string, minMember int) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			PodGroup:  group,
			MinMember: minMember,
			Containers: []api.Container{{
				Name: "main",
				Resources: api.Requirements{
					Requests: resource.List{resource.Memory: borg.StandardMemBytes(job.AssignedMemFrac)},
				},
				Workload: api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: job.Duration},
			}},
		},
	}
}

// GangDrain submits a Borg-derived backlog of gang and solo jobs at t=0
// and drains it with cfg.Shards schedulers sharing one gang director.
func GangDrain(cfg GangExpConfig) (GangExpResult, error) {
	cfg = cfg.withDefaults()
	st := stack.New(apiserver.WithAdmission(apiserver.AdmitStrict))
	clk, srv := st.Clk, st.Srv

	// Both watchers subscribe before Start — before any node or pod
	// exists — so the replayed stream is complete.
	capWatch := newCapacityWatcher()
	defer srv.Subscribe(capWatch.onEvent)()
	gangWatch := newGangWatcher(clk)
	defer srv.Subscribe(gangWatch.onEvent)()

	if err := st.Start(stack.Config{Nodes: stack.Fleet(cfg.StdNodes, 0, 0, false)}); err != nil {
		return GangExpResult{}, fmt.Errorf("gang: %w", err)
	}
	defer st.Close()

	dir := core.NewGangDirector(clk, srv, core.GangConfig{PermitTimeout: cfg.PermitTimeout})
	defer dir.Close()
	ss, err := core.NewSharded(clk, srv, nil, core.Config{
		Name:            "gangsched",
		Policy:          core.Binpack{},
		Interval:        cfg.Interval,
		MaxBindsPerPass: cfg.MaxBindsPerPass,
		Gang:            dir,
	}, cfg.Shards, false)
	if err != nil {
		return GangExpResult{}, fmt.Errorf("gang: building schedulers: %w", err)
	}
	defer ss.Close()

	// Backlog: the first Gangs×GangSize trace jobs become gang members
	// (job i shapes gang i's members), the next SoloJobs stay solo.
	trace := borg.NewGenerator(borg.DefaultConfig(cfg.Seed)).EvalSlice()
	need := cfg.Gangs + cfg.SoloJobs
	if trace.Len() < need {
		return GangExpResult{}, fmt.Errorf("gang: trace has %d jobs, need %d", trace.Len(), need)
	}
	submit := func(pod *api.Pod) error {
		ss.Assign(pod)
		return srv.CreatePod(pod)
	}
	for i := 0; i < cfg.Gangs; i++ {
		group := fmt.Sprintf("gang-%03d", i)
		for m := 0; m < cfg.GangSize; m++ {
			pod := gangPodFromJob(trace.Jobs[i], fmt.Sprintf("%s-m%d", group, m), group, cfg.GangSize)
			if err := submit(pod); err != nil {
				return GangExpResult{}, fmt.Errorf("gang: submitting backlog: %w", err)
			}
		}
	}
	for i := 0; i < cfg.SoloJobs; i++ {
		if err := submit(multiSchedPod(trace.Jobs[cfg.Gangs+i], false)); err != nil {
			return GangExpResult{}, fmt.Errorf("gang: submitting backlog: %w", err)
		}
	}

	start := clk.Now()
	ss.Start()
	completed := clk.Run(func() bool {
		return srv.PendingCount() == 0 && srv.ReservationCount() == 0
	}, start.Add(cfg.Horizon))

	res := GangExpResult{
		Shards:            cfg.Shards,
		Gangs:             cfg.Gangs,
		GangSize:          cfg.GangSize,
		Completed:         completed,
		DrainTime:         clk.Since(start),
		PartialPlacements: gangWatch.partial,
		Violations:        capWatch.violations,
		LeakedPermits:     srv.ReservationCount(),
	}
	ds := dir.Stats()
	res.GangsCommitted = ds.Commits
	res.PermitTimeouts = ds.Timeouts
	var sum time.Duration
	n := 0
	for g, at := range gangWatch.fullAt {
		d := at.Sub(gangWatch.submitted[g])
		sum += d
		if d > res.MaxTimeToFullGang {
			res.MaxTimeToFullGang = d
		}
		n++
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
