package core

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// ShardedSchedulers runs N scheduler instances over one API server — the
// paper's "multiple schedulers can be deployed concurrently" (§V-B),
// realised as an Omega-style shared-state design: every member plans
// optimistically against its own view of the shared event-driven cache,
// and the API server's admission-checked conditional Bind is the
// transaction commit that decides races. A member that loses gets
// ErrOutdated/ErrConflict, keeps the pod pending, and retries next round
// from a view that has already absorbed the winner's events.
//
// The fleet shares one ClusterCache (member 0 owns it): the event
// stream is identical for every member, so per-member caches would hold
// identical state while multiplying the watch fan-out and per-event
// apply work by N. Shared state lives in the cache; per-member
// optimism lives in the *views* each member plans on — in round-robin
// mode synced for all members before any member plans (mutually stale by
// construction), in concurrent mode synced at each pass's start.
//
// Work partitioning: pods are sharded onto members by an FNV-1a hash of
// the pod name, stamped into Spec.SchedulerName at submission (Assign).
// Each pod therefore has exactly one owner — members never duplicate
// placement work or burn their per-pass budget re-attempting pods a peer
// just bound, which a single shared queue would cause (every member scans
// the same queue head). What stays shared — and contended — is node
// capacity: that is where the conflicts the admission check arbitrates
// come from. The alternative (one shared queue, first-binder-wins) is
// strictly worse here because the §IV queue is FCFS: all members would
// walk the same prefix in the same order.
//
// Two execution modes:
//
//   - Deterministic round-robin (Concurrent off): RunRound syncs every
//     member's view first, then runs the members' plans sequentially,
//     each on its round-start view. Within a round the views are
//     mutually stale — member k does not see members 0..k-1's binds,
//     unless a preemption attempt of its own re-syncs it mid-plan, as a
//     concurrent member's would — which models optimistic concurrency
//     exactly, yet everything happens on the simulation clock's
//     goroutine, so runs are reproducible bit for bit and the
//     cache≡rebuild and determinism property tests extend to N > 1.
//   - Concurrent (real goroutines, for benchmarks and -race hammering):
//     RunRound launches every member's pass on its own goroutine and
//     waits. Races are real; safety is still guaranteed by admission, but
//     conflict counts become nondeterministic.
type ShardedSchedulers struct {
	members    []*Scheduler
	concurrent bool
}

// ShardIndex returns the member index serving podName in an n-way shard:
// FNV-1a of the name modulo n. Deterministic across runs and processes.
func ShardIndex(podName string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(podName))
	return int(h.Sum32() % uint32(n))
}

// NewSharded builds n scheduler instances over one API server. Member i
// takes the identity cfg.Name + "-i"; pods select their member via
// Spec.SchedulerName (use Assign or ShardFor). cfg applies to every
// member. concurrent selects real-goroutine rounds (see the type
// comment).
func NewSharded(clk clock.Clock, srv *apiserver.Server, db *tsdb.DB, cfg Config, n int, concurrent bool) (*ShardedSchedulers, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: sharded schedulers need n >= 1, got %d", n)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: scheduler name required")
	}
	ss := &ShardedSchedulers{concurrent: concurrent}
	for i := 0; i < n; i++ {
		mcfg := cfg
		mcfg.Name = fmt.Sprintf("%s-%d", cfg.Name, i)
		// Member 0 builds the cluster cache; the rest share it. Every
		// member sees the identical event stream, so private caches
		// would hold identical state while multiplying the per-event
		// apply work (and the watch fan-out) by the fleet size.
		var donor *Scheduler
		if i > 0 {
			donor = ss.members[0]
		}
		m, err := newScheduler(clk, srv, db, mcfg, donor)
		if err != nil {
			for _, built := range ss.members {
				built.Close()
			}
			return nil, err
		}
		ss.members = append(ss.members, m)
	}
	return ss, nil
}

// Members exposes the scheduler instances (for tests and stats).
func (ss *ShardedSchedulers) Members() []*Scheduler { return ss.members }

// ShardFor returns the member identity (SchedulerName) serving podName.
func (ss *ShardedSchedulers) ShardFor(podName string) string {
	return ss.members[ShardIndex(podName, len(ss.members))].Name()
}

// Assign stamps the pod with its owning member's identity. Call before
// CreatePod.
func (ss *ShardedSchedulers) Assign(pod *api.Pod) {
	pod.Spec.SchedulerName = ss.ShardFor(pod.Name)
}

// RunRound executes one pass of every member and returns the total pods
// bound. In round-robin mode all views are captured before any member
// binds, so members race exactly as optimistic concurrent schedulers do —
// deterministically; in concurrent mode the passes really run in
// parallel.
func (ss *ShardedSchedulers) RunRound() int {
	if ss.concurrent {
		var total int64
		var wg sync.WaitGroup
		for _, m := range ss.members {
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				atomic.AddInt64(&total, int64(m.ScheduleOnce()))
			}()
		}
		wg.Wait()
		return int(total)
	}
	for _, m := range ss.members {
		// Sync every member's view before any member plans: member k's
		// view must not include members 0..k-1's binds from this round.
		// Each member owns its incremental view, so the round-start
		// capture costs O(nodes changed since the member's last round).
		m.syncPass()
	}
	bound := 0
	for _, m := range ss.members {
		bound += m.schedulePass(false)
	}
	return bound
}

// Close detaches every member from its event sources.
func (ss *ShardedSchedulers) Close() {
	for _, m := range ss.members {
		m.Close()
	}
}

// Stats returns the members' counters summed.
func (ss *ShardedSchedulers) Stats() Stats {
	var total Stats
	for _, m := range ss.members {
		total.add(m.Stats())
	}
	return total
}
