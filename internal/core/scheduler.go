package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// Defaults for the scheduling loop.
const (
	// DefaultInterval is the period of the scheduling pass; "the
	// scheduler periodically checks for the possibility to schedule"
	// queued jobs (§IV).
	DefaultInterval = 5 * time.Second
	// DefaultWindow is the sliding metric window of Listing 1 (25 s).
	DefaultWindow = 25 * time.Second
)

// Config parameterises a Scheduler.
type Config struct {
	// Name is the scheduler identity pods select via
	// Spec.SchedulerName — multiple schedulers can serve one cluster
	// concurrently (§V-B).
	Name   string
	Policy Policy
	// Interval between scheduling passes (DefaultInterval when zero). The
	// scheduler does not arm its own pass: the experiments testbed reads
	// this and arms ScheduleOnce, or a fleet's RunRound, on the clock.
	Interval time.Duration
	// Window is the sliding metric window (DefaultWindow when zero). It is
	// also how long after a pod starts the scheduler keeps charging
	// max(measured, requested) before trusting measurements alone.
	Window time.Duration
	// UseMetrics enables usage-aware scheduling; false reproduces the
	// request-only accounting of the default Kubernetes scheduler.
	UseMetrics bool
	// MaxBindsPerPass bounds the successful bindings of one scheduling
	// pass (0 = unbounded). Real schedulers have finite per-cycle
	// throughput; bounding a pass makes that throughput explicit, which is
	// what lets the sharded multi-scheduler experiments measure how
	// adding schedulers scales backlog draining.
	MaxBindsPerPass int
	// Gang attaches a gang-scheduling director: the cycle lets it gate
	// every pod-group member and reserves a member's placement
	// conditionally instead of binding it, so the gang commits at quorum
	// (gang.go). Solo pods never reach it, and with Gang nil a gang member
	// binds like a solo pod. A sharded fleet must pass the same director
	// to every member — quorum is cluster-wide.
	Gang *GangDirector
	// Classes is ignored: every scheduler routes a pod that declares a
	// workload class through that class's fixed profile (classify.go), and
	// an unclassified pod through Policy. It stays only because the
	// benchmark module sets it; ROADMAP item 29 removes it.
	Classes *ClassRegistry
	// Telemetry attaches a metrics registry (internal/telemetry): the
	// scheduler records pass/stage duration histograms, per-class
	// outcome counters and a per-pass trace. Nil disables telemetry at
	// zero cost — no clock reads, no atomics, no allocations are added
	// to the pass (pinned by the alloc guard in telemetry_core_test.go).
	// Sharded fleet members sharing one registry aggregate into the
	// same series.
	Telemetry *telemetry.Registry
	// Trace is the pass-trace ring the scheduler records into when
	// Telemetry is set. Nil records no pass traces; a sharded fleet can
	// pass one shared ring so its members' traces interleave
	// chronologically (traces carry the scheduler name).
	Trace *telemetry.TraceRing
	// TraceDetailEvery samples detailed tracing: every Nth pass
	// additionally times the per-pod filter and score stages, the gang
	// director's gate (prefilter) and quorum step (permit) and preemption
	// planning (DefaultTraceDetailEvery when 0; negative disables detail).
	// Undetailed passes still record pass-level spans (snapshot-sync,
	// bind) and every counter — detail sampling is what keeps the
	// instrumented pass within a few percent of the uninstrumented one.
	TraceDetailEvery int
}

// Stats counts scheduler activity for tests and benchmarks.
type Stats struct {
	Passes        int
	Bound         int
	Unschedulable int
	// Memoised counts the Unschedulable cycles the pass's failure memo
	// proved without running the filter or the preemption planner
	// (memo.go).
	Memoised int
	// Preemptions counts scheduling decisions that evicted lower-priority
	// victims to make room; Victims counts the pods evicted by them — the
	// evictions the API server confirmed, each a requeue on the watch
	// stream, not the ones planned.
	Preemptions int
	Victims     int
	// Conflicts counts binds the API server refused because this
	// scheduler's view was stale (a concurrent scheduler won the race, or
	// the node was cordoned mid-pass). Conflicted pods stay pending and
	// retry on the next pass from a refreshed cache.
	Conflicts int
	// Sampled counts pods whose candidate search used the indexed
	// sampling path instead of a full node scan (see
	// numFeasibleNodesToFind).
	Sampled int
	// Gated counts gang members the gang director's gate turned away
	// before any per-node work (their gang's remaining members cannot fit
	// this pass).
	Gated int
	// Held counts successful conditional reservations (gang permits)
	// taken in place of immediate binds.
	Held int
	// ByClass breaks the pass outcomes down per workload class (indexed
	// by api.WorkloadClass.Slot; slot 0 is the unclassified default). A
	// fixed array, not a map, so Stats stays a plain value copy.
	ByClass [api.NumClasses]ClassStats
}

// ClassStats is the per-workload-class slice of Stats.
type ClassStats struct {
	Bound         int
	Unschedulable int
	// Preemptions/Victims count evictions *inflicted by* this class's
	// pods (the preemptor side; victims are attributed to the class that
	// displaced them).
	Preemptions int
	Victims     int
	// Held counts this class's conditional gang reservations.
	Held int
}

// Class returns the per-class counters for c (ClassUnspecified — and any
// unknown string — reports the default-pipeline slice).
func (s *Stats) Class(c api.WorkloadClass) ClassStats {
	return s.ByClass[c.Slot()]
}

// add folds other into s: a pass tally into its scheduler's totals, a
// member's totals into its fleet's.
func (s *Stats) add(other Stats) {
	s.Passes += other.Passes
	s.Bound += other.Bound
	s.Unschedulable += other.Unschedulable
	s.Memoised += other.Memoised
	s.Preemptions += other.Preemptions
	s.Victims += other.Victims
	s.Conflicts += other.Conflicts
	s.Sampled += other.Sampled
	s.Gated += other.Gated
	s.Held += other.Held
	for i := range s.ByClass {
		s.ByClass[i].Bound += other.ByClass[i].Bound
		s.ByClass[i].Unschedulable += other.ByClass[i].Unschedulable
		s.ByClass[i].Preemptions += other.ByClass[i].Preemptions
		s.ByClass[i].Victims += other.ByClass[i].Victims
		s.ByClass[i].Held += other.ByClass[i].Held
	}
}

// Scheduler is one SGX-aware scheduler instance. It is "packaged as a
// Kubernetes pod" in the paper (§V-B); here it attaches to the API server
// and the time-series database directly.
type Scheduler struct {
	clk clock.Clock
	srv *apiserver.Server
	cfg Config

	// agg is the streaming Listing 1 aggregator feeding the cache — the
	// scheduler's only read of measured usage.
	agg   *monitor.WindowMax // nil when UseMetrics is off
	cache *ClusterCache
	// ownsCache marks the member that constructed the cache/aggregator
	// pair. Sharded fleets share one ClusterCache across members — the
	// event stream is identical for every member, so N private caches
	// would just multiply the fan-out apply work by N — and only the
	// owner detaches it on Close.
	ownsCache bool

	// pipelines is the per-class-slot scheduling behaviour resolved at
	// construction (classify.go): slot 0 is the Policy's pipeline — the
	// Policy selecting among the nodes the §IV fit accepts — and the
	// class slots are their fixed profiles.
	pipelines [api.NumClasses]pipeline

	// passMu serializes scheduling passes; the chunk buffer (one pulled
	// chunk of queue entries, cleared when the pass ends) and the cycle
	// state are reused across passes so a steady-state pass allocates
	// nothing.
	passMu sync.Mutex
	chunk  []queuedPod
	cyc    cycleState
	// view is the scheduler's one cluster view, persistent across passes:
	// pooled NodeViews plus the candidate index, brought current via
	// cache.SyncView at O(changed nodes) — by the pass before it plans,
	// and by the preemption planner before it picks victims. Everything
	// the scheduler decides, it decides on this view.
	view *ClusterView
	// sampleOffset is the rotating start position for sampled candidate
	// searches, advanced by the nodes each search visits so coverage
	// spreads over all eligible nodes across pods and passes. Purely a
	// function of the pass history, so sim-clock runs stay reproducible.
	sampleOffset int
	// noMemo runs every cycle in full, bypassing the failure memo: the
	// exhaustive reference the memo's property test compares against.
	noMemo bool

	// metrics holds the telemetry handles (nil when disabled); rec is the
	// reusable per-pass trace accumulator and passSeq numbers this
	// scheduler's passes. All guarded by passMu like the buffers above.
	metrics *schedMetrics
	rec     passRecorder
	passSeq int64

	mu    sync.Mutex
	stats Stats
}

// New creates a scheduler. The database may be nil when UseMetrics is
// false.
func New(clk clock.Clock, srv *apiserver.Server, db *tsdb.DB, cfg Config) (*Scheduler, error) {
	return newScheduler(clk, srv, db, cfg, nil)
}

// newScheduler builds a scheduler; a non-nil donor shares its cluster
// cache and aggregator instead of constructing private ones (sharded
// fleet members — see ShardedSchedulers).
func newScheduler(clk clock.Clock, srv *apiserver.Server, db *tsdb.DB, cfg Config, donor *Scheduler) (*Scheduler, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: scheduler name required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: policy required")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.UseMetrics && db == nil {
		return nil, fmt.Errorf("core: UseMetrics requires a metrics database")
	}
	if cfg.UseMetrics && cfg.Window > db.Retention() {
		// Beyond retention an InfluxQL Listing 1 over the database (the
		// test oracle's read path) clamps to the retention cutoff while the
		// streaming aggregator would not; the scheduler must never see
		// usage the paper's query could not.
		return nil, fmt.Errorf("core: window %v exceeds metrics retention %v", cfg.Window, db.Retention())
	}
	if cfg.TraceDetailEvery == 0 {
		cfg.TraceDetailEvery = DefaultTraceDetailEvery
	}
	s := &Scheduler{clk: clk, srv: srv, cfg: cfg, pipelines: resolvePipelines(cfg.Policy)}
	if cfg.Telemetry != nil {
		s.metrics = newSchedMetrics(cfg.Telemetry)
	}

	// Wire the event-driven read path: the streaming window-max
	// aggregator backfills from the database and rides its write path;
	// the cluster cache performs the informer handshake and re-fuses
	// pods as their window peaks move. Fleet members adopt their donor's
	// pair: one watch subscription and one apply per event regardless of
	// fleet size.
	if donor != nil {
		s.agg = donor.agg
		s.cache = donor.cache
		return s, nil
	}
	if cfg.UseMetrics {
		s.agg = monitor.NewWindowMax(clk, db, cfg.Window, monitor.MeasurementEPC, monitor.MeasurementMemory)
	}
	s.cache = newClusterCache(clk, srv, s.agg, cfg.Window, cfg.UseMetrics)
	if s.agg != nil {
		s.agg.SetOnChange(s.cache.onMetric)
	}
	s.ownsCache = true
	return s, nil
}

// Name returns the scheduler identity.
func (s *Scheduler) Name() string { return s.cfg.Name }

// Stats returns a copy of the activity counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close detaches the scheduler's cluster cache and metrics aggregator
// from their event sources (fleet members sharing a donor's cache leave
// that to the donor). The scheduler is unusable afterwards; whoever armed
// its pass timer stops that first.
func (s *Scheduler) Close() {
	if !s.ownsCache {
		return
	}
	s.cache.Close()
	if s.agg != nil {
		s.agg.Close()
	}
}

// ScheduleOnce runs a single §IV pass: open a walk of the scheduler's
// priority-then-FCFS pending queue (kept by the cluster cache from the
// watch stream, see queue.go), bring the scheduler's incremental
// view of node state and fused usage current from the cluster cache —
// O(nodes changed since the last pass), not O(nodes) — and run one
// scheduling cycle per pending pod: the §IV filter (NodeView.Fits) over
// job-node combinations, placement by the pod's policy, and the bind. A pod with no feasible node may preempt strictly
// lower-priority pods (see preemption.go); otherwise it stays queued for
// the next pass. It returns the number of pods bound. Pass cost scales
// with the pods it examines and with nodes — not with the depth of the
// queue behind them, nor with the total number of bound pods: the cache
// absorbed that per-pod work when the pods' events arrived.
//
// The walk copies queue entries a chunk at a time under the cache's lock —
// each the read-only pod of the event that queued it and its request
// totals — and holds no lock during policy work, so a slow placement pass
// never stalls concurrent schedulers, kubelets or the API server.
func (s *Scheduler) ScheduleOnce() int {
	return s.schedulePass(true)
}

// syncPass is the sync half of a pass on its own. The sharded round-robin
// driver (shard.go) runs it on every member before any member plans, so
// each member's view is captured at round start — deliberately stale with
// respect to the other members' binds in the same round — which models
// optimistic shared-state concurrency deterministically under the
// simulation clock.
func (s *Scheduler) syncPass() {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	s.syncedViewLocked()
}

// syncedViewLocked brings the scheduler's view current with the cluster
// cache and returns it — the only place a view is synced. Caller holds
// passMu.
func (s *Scheduler) syncedViewLocked() *ClusterView {
	if s.view == nil {
		s.view = s.cache.NewView()
	}
	s.cache.SyncView(s.view)
	return s.view
}

// schedulePass is one pass: sync the view, then plan on it. syncFirst is
// false only for the round-robin driver, whose members were all synced at
// round start (syncPass) and must not see each other's binds since.
//
// The plan is a loop of per-pod scheduling cycles folded into one tally:
// every counter the pass reports — to Stats, to the registry, to the
// trace ring — is that one Stats value. Two things end a pass early: a
// spent MaxBindsPerPass budget, and a stale conflict — the view is then
// provably outdated and the rest of the plan rests on the same
// assumptions. The conflicted pod stays pending; by the time the next
// pass syncs its view the cache has already absorbed the concurrent
// winner's PodBound event, so the retry plans against reality.
func (s *Scheduler) schedulePass(syncFirst bool) int {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	c := &s.cyc
	c.rec = nil
	if s.metrics != nil {
		s.passSeq++
		c.rec = &s.rec
		c.rec.begin(s.passSeq, s.cfg.TraceDetailEvery)
	}
	c.det = c.rec.detailOnly()
	c.memo.reset() // a pass proves only what it sees; nothing carries over
	tally := Stats{Passes: 1}

	// The queue is pulled as the pass spends its budget, a chunk at a
	// time: the walk's horizon is fixed here, so the pass sees the queue
	// as it stands now — a victim its own preemption re-queues waits for
	// the next pass — but copies only the entries it gets to. Pods that
	// leave the queue mid-walk are skipped, not handed over stale.
	walk := s.cache.walk(s.cfg.Name)
	examined, used, chunk := 0, 0, s.chunk
	for more := true; more; {
		chunk, more = s.cache.pull(&walk, chunk[:0])
		if len(chunk) > 0 && examined == 0 {
			if syncFirst {
				tSync := c.rec.now()
				s.syncedViewLocked()
				c.rec.stageSince(stageSync, tSync)
			}
			// One-lock-per-pass preemption gate, refreshed after evictions.
			c.minPrio, c.anyBound, c.beBound = s.cache.preemptGate()
		}
		examined, used = examined+len(chunk), max(used, len(chunk))
		for i := range chunk {
			o := s.cycle(c, &chunk[i])
			tally.count(o)
			if o.stale || (s.cfg.MaxBindsPerPass > 0 && tally.Bound+tally.Held >= s.cfg.MaxBindsPerPass) {
				more = false // the rest stays queued
				break
			}
		}
	}
	// Each pull overwrote the one before; what the longest left behind is
	// cleared, so the buffer pins no pod past the pass.
	clear(chunk[:used])
	s.chunk = chunk[:0]
	s.cache.dequeue(c.committed)
	clear(c.committed)
	c.committed = c.committed[:0]
	if examined == 0 {
		// Nothing to place, but still drain time-driven cache state: the
		// aggregator's expiry heap and the maturity heap are only emptied
		// by a refresh, and idle is the steady state between job waves —
		// an idle scheduler must not let them grow while metrics flow.
		s.cache.Refresh()
	}
	s.mu.Lock()
	s.stats.add(tally)
	s.mu.Unlock()
	if c.rec != nil {
		s.recordPass(c.rec, examined, &tally)
	}
	return tally.Bound
}
