// Package sgxorch is an SGX-aware container orchestrator for
// heterogeneous clusters — a full reproduction of Vaucher et al.,
// "SGX-Aware Container Orchestration for Heterogeneous Clusters"
// (ICDCS 2018).
//
// The library builds simulated Kubernetes-like clusters mixing standard
// and Intel SGX machines, schedules jobs whose Enclave Page Cache (EPC)
// demands are tracked as first-class, *measured* resources, and enforces
// per-pod EPC limits inside a modified SGX driver model. The package
// exposes:
//
//   - Cluster: assemble a cluster (standard + SGX nodes), submit jobs —
//     optionally with priorities, or grouped into all-or-nothing gangs
//     (JobSpec.Gang/GangMinMember) — and observe placements, waiting
//     times and turnaround times; the simulated clock replays hours of
//     cluster time in milliseconds.
//   - Policies: the paper's binpack and spread strategies plus a
//     request-only baseline mirroring Kubernetes' default scheduler.
//   - ReplayBorgTrace: replay the paper's Google Borg trace slice (663
//     jobs, §VI-B) under any configuration.
//   - ReproduceFigure: regenerate any of the paper's evaluation figures
//     (Figs. 3-11).
//
// The subsystems live in internal/ packages: the SGX hardware model
// (internal/sgx), the modified isgx driver (internal/isgx), the device
// plugin (internal/deviceplugin), kubelets (internal/kubelet), the
// monitoring pipeline (internal/monitor, internal/tsdb,
// internal/influxql), the scheduler core (internal/core) and the Borg
// trace substrate (internal/borg). This package is the stable public
// surface over them.
//
// The whole cluster is assembled in exactly one function,
// internal/experiments' NewTestbed: the simulated clock, the API server,
// one machine and kubelet per node (SGX / SGX 2 geometry, limit
// enforcement, the unschedulable master), when a scrape interval is given
// the TSDB with Heapster and the probe DaemonSet, and the schedulers on
// top. It arms every periodic timer too: the schedulers and the
// collectors expose only their step (a pass, a round, a scrape) and
// arm nothing. A TestbedConfig names the nodes, limit enforcement, the scrape
// interval and a core.Config, plus the shard count, concurrent rounds, a
// shared gang director and the admission mode. NewCluster translates
// ClusterConfig into one — a class-aware scheduler with a gang director
// and, unless telemetry is disabled, a registry and a pass-trace ring —
// and every experiment — the figure harnesses, the ablations, the
// preemption scenario, the multi-scheduler, gang and class fleets, the
// observability run and ReplayBorgTrace — is another. The Paper preset is
// §VI-A: one master, two 64 GiB standard nodes and two 8 GiB SGX nodes
// with 128 MiB of EPC under the paper's scheduler. Every testbed's
// reference-model audit subscribes before the first node registers, so it
// sees the whole watch stream, the shipped Cluster and ReplayBorgTrace
// included, and hands each batch on to the lifecycle tracker. The order matters and is written down once, in NewTestbed's
// doc: under the simulated clock components registered for the same
// instant fire in registration order, so the order in which NewTestbed
// starts kubelets and arms the collectors', the self-scrape's and the
// pass's timers
// decides how same-instant scrapes, passes and completions
// interleave — and with it every golden digest. Close stops everything
// in reverse start order, except that kubelets stop in node order (each
// publishes its node's NotReady update, and the determinism tests digest
// that tail). A test pins that the two public entry points are the same
// machine: the §VI-B slice agrees job for job — phase, waiting time,
// turnaround — between ReplayBorgTrace and the same jobs submitted to a
// Cluster.
//
// Resource quantities (internal/resource) are values. The paper makes EPC
// one more countable item beside CPU and memory (§V-A), so the vocabulary
// is closed: resource.Name is a dense index and resource.List a fixed
// array of one integer per name — the zero value is the empty list,
// assignment copies it, == compares it. A pod's request total is summed
// on the stack, and every fit check (the scheduler's NodeView.Fits, the
// API server's bind admission, the kubelet's device admit) compares
// integers. The API server refuses a pod with a negative request or
// limit, so every stored quantity is non-negative.
//
// The watch stream has one reference model, internal/model: a pure,
// clock-free reducer (model.New(admission), then Apply per event) holding
// what the stream describes — per node, allocatable and committed
// requests; per pod, node, phase, class, priority, charge, permit and the
// rev it last entered the queue at; per gang, quorum, held / bound /
// finished members and the SubmittedAt / ScheduledAt stamps of its first
// member and of the bind that first made it full; per class, binds, runs
// and preemptions; and the pending order (priority, then queue entry). A
// permit charges its node like a bind, the gang commit's PodBound moves
// no capacity, and a settled gang is whole when bound plus finished
// members reach its quorum. Apply refuses, with an error wrapping one of
// model.ErrRev, ErrChargedTwice, ErrRunTwice, ErrCommitNode, ErrNegative
// or ErrOvercommit, an event that breaks a rule the server guarantees: a
// rev that is not the last + 1 (the first sets the base), a charge taken
// twice, a second Running event for a pod already Running (MarkRunning is
// idempotent and publishes one per binding), a gang commit off its
// permit's node, a negative commitment, or
// one beyond what admission allows (EPC under AdmitGuarded, everything
// under AdmitStrict); a refused event changes
// nothing but the last rev. A node the stream has not described has no
// allocatable, so an audit subscribes before the first node registers.
// The model deliberately leaves out usage (the scheduler's fusion of
// requests with measured peaks), time beyond the server's status stamps,
// and gang coalescing in the scheduler's queue — its pending order
// (priority, then the rev a pod entered the queue at) is each scheduler's
// queue once gangs are coalesced (a property test replays it); the server
// keeps no order, and its Snapshot.Pending revs are the model's QueuedAt.
// It is the one referee: every testbed runs under its audit. A refused
// event fails ReplayBorgTrace after the testbed closes, and a Cluster
// with telemetry exports the refusals as the model_violations gauge; the
// experiments read their safety counts and event-derived ground truth off
// it, and the property tests are Apply plus assertions.
//
// The module path is github.com/sgxorch/sgxorch (Go 1.24).
//
// The monitoring plane is built for long replays, and a series' identity
// is rendered once — when its first point arrives — and never re-derived.
// internal/tsdb indexes series per measurement, keeps points
// time-ordered, exposes a windowed in-place Scan(measurement, from, to,
// fn) API, and garbage-collects series whose newest point has aged out of
// retention. A write to an existing series allocates nothing: the
// canonical tag key is rendered into a buffer the database owns and
// looked up in place, and write observers and scans are handed the
// series' own immutable tag set, so a collector's two-entry tag literal
// never leaves its stack and a writer may refill one map across writes.
// A stored point is 16 pointer-free bytes — its instant as Unix
// nanoseconds in an int64, saturated at the range's ends by
// tsdb.UnixNanos, and its value — so the garbage collector never scans
// point storage and every window search, insert, prune and sweep compares
// integers; a write reads the database clock once. time.Time stays at the
// API: Write, write observers, Scan's bounds and Now.
// internal/influxql executes Listing 1-style queries by pushing time and
// value predicates into that scan (a residual time predicate's threshold
// is computed once per query and compared as an int64) and folding points
// into per-group
// running aggregates found through a hash of the GROUP BY tag values; a
// subquery's groups fold straight into the outer aggregator, and tag maps
// are built only for the rows returned — a query allocates O(log groups)
// times, not per series or per point.
//
// The scheduling read path is event-driven rather than rebuilt per pass.
// The API server exposes an informer handshake (ListAndWatchBatch): a
// consistent snapshot stamped with a resource version, followed by
// ordered watch events — delivered inline in the default synchronous
// mode, or decoupled from the commit path by the internal/watch broker
// (below). The scheduler's
// ClusterCache builds node views once from that snapshot and then applies
// deltas — a pod's fused usage is added on bind and removed on terminal
// transitions instead of re-summing every pod. Measured usage comes from
// a streaming sliding-window-max aggregator (monitor.WindowMax) riding
// the time-series database's write path: one monotonic deque per
// (measurement, pod, node) series keeps Listing 1's 25 s peak current at
// O(1) amortized per sample, and a typed, lazily cleaned expiry heap
// re-announces peaks that age out of the window without a write — a
// steady-state sample allocates nothing there either, and a sample that
// only repeats the standing peak is not announced. A scheduling pass therefore
// costs O(pending pods + nodes), independent of total cluster size, and
// the aggregator is the scheduler's only read of usage: internal/core
// does not import the query engine. The InfluxQL-driven from-scratch
// view the paper's scheduler built every pass survives as that package's
// test oracle (oracle_test.go), the reference implementation the cache
// is property-tested against.
//
// Scheduling itself (internal/core) is one fixed filter, the §IV
// feasibility rule (SGX capability, EPC device fit, resource
// saturation), followed by a placement policy that selects among the
// nodes it accepted in one call: the paper's binpack and spread, which
// keep standard jobs off SGX nodes while another node will do; the
// request-only baseline of Kubernetes' default scheduler (§V-B); and a
// usage-aware policy that scores measured headroom and EPC pressure.
// Each is bit-identical to its original implementation, which the tests
// pin. Policies are stateless values, so one policy can serve a whole
// concurrent fleet. A pass is a loop of per-pod
// scheduling cycles, each reporting a typed outcome (bound, held, gated,
// unschedulable, conflict, skipped) that the pass folds into a single
// tally — the value behind SchedulerStats, the scheduler_*_total series
// and the pass trace alike. Gang scheduling (below) is a call the cycle
// makes, not part of a policy.
//
// Jobs carry a priority: each scheduler's queue — kept by its cluster
// cache from the watch stream; the API server only indexes which pods are
// pending — drains priority-then-FCFS,
// and when a high-priority job finds no feasible node the scheduler
// preempts a minimal set of strictly lower-priority jobs — fewest
// victims, lowest priorities first, deterministic tie-breaks. Victims
// are returned to the queue (not failed), their kubelet kills the
// workload and releases devices synchronously, and the preemptor binds
// in the same pass. Equal priorities never preempt each other, and a job
// no victim set can accommodate evicts nothing. All of it is
// delta-maintained in the cluster cache and covered by the cache≡rebuild
// equivalence and run-to-run determinism property tests.
//
// Event fan-out is a subsystem of its own (internal/watch): an
// asynchronous versioned event broker — the in-process analogue of the
// Kubernetes apiserver watch cache — holding one bounded ring buffer of
// watch events indexed by resource version, with per-subscriber
// cursors. A mutation's commit critical section performs
// an O(1) ring append and never runs subscriber code; dissemination is a
// separate concern. In the default synchronous mode the publishing
// goroutine delivers inline afterwards, one batch per subscriber with an
// event pending, in subscription order — under the simulation clock this
// is bit-for-bit the historical callback-list behavior, which the
// determinism and cache≡rebuild property tests pin. A kubelet is sent
// its own node's events alone (Server.SubscribeNode), so a commit wakes
// the whole-stream subscribers and the one kubelet it concerns, not the
// fleet. The flush is a combining one: the
// goroutine that finds none in progress drains for everybody, and a
// Flush that finds one active — re-entrant from a callback or concurrent
// from another committer, the broker does not ask which — returns at
// once, so no commit pays a goroutine-id lookup (a stack traceback).
// A stored pod or node is immutable: a commit stores its next version and
// publishes that same pointer, so an event, GetPod, the lists and a
// snapshot all hand out stored versions, read-only and safe to retain,
// with no copy. In asynchronous mode
// (apiserver.WithAsyncWatch) every subscriber gets a pump goroutine that
// drains the ring in batches ([]WatchEvent per callback): publishers
// never wait for consumers, slow consumers batch up naturally, and a
// subscriber that falls off the ring resyncs from a fresh consistent
// snapshot (ListAndWatch-style relist) instead of blocking the writer or missing
// deltas silently. Back-pressure is accounted per subscriber (batches,
// max lag, resyncs, drops; see Server.WatchStats). The scheduler's
// ClusterCache ingests batches through ApplyAll (one lock acquisition
// and one maturity-heap settle per batch) and rebuilds from a snapshot
// on resync; kubelets reconcile their local pod set against the
// snapshot the same way. The fan-out experiment
// (internal/experiments.FanoutScenario, walked through in
// examples/fanout) drains the same backlog at 1-8 concurrent schedulers
// × 1-32 watchers under both modes: with synchronous delivery the
// fan-out runs inside a mutating call — one committer at a time delivers
// everybody's events to every subscriber they are for, serially, and its bind returns
// only when the drain does; with the async broker no commit runs
// subscriber code, the pumps deliver in parallel and in batches, and a
// slow subscriber resyncs instead of holding anyone up — which is what
// lets the sharded-scheduler benchmark scale with scheduler count.
//
// Multiple schedulers can serve one cluster concurrently (§V-B), in the
// Omega shared-state style. The API server's Bind is an admission-checked
// conditional commit: under the server lock it re-validates against
// authoritative pod/node state that the target node is Ready and
// schedulable, that SGX pods land on SGX hardware, that the per-node sum
// of EPC page-item requests never exceeds the device count, and — in
// strict mode, for request-only scheduler fleets — that memory/CPU
// request sums stay within allocatable. A scheduler that planned against
// a stale cache loses the race with a typed ErrOutdated/ErrConflict
// instead of overcommitting the node: the pod stays pending, the pass
// records a conflict, and the retry plans against a cache that has
// already absorbed the winner's events. internal/core's
// ShardedSchedulers runs N such schedulers over one API server, pods
// hash-sharded onto members by name, with two execution modes:
// deterministic round-robin rounds whose members plan against
// round-start views (mutually stale by construction, so optimistic
// concurrency — conflicts included — reproduces bit for bit under the
// simulation clock, and the cache≡rebuild and determinism property tests
// extend to N > 1), and real-goroutine concurrent rounds for wall-clock
// benchmarks and race hammering. The multi-scheduler experiment
// (internal/experiments.MultiSchedScenario, walked through in
// examples/multisched) drains the same Borg backlog with 1, 2 and 4
// schedulers, reporting drain throughput, the conflict rate, and a
// safety invariant re-derived purely from the watch event stream: no
// node's committed requests ever exceed its allocatable, no matter how
// many schedulers race.
//
// The API server's commit path itself is sharded (internal/apiserver):
// pod and node state live in 64 lock stripes each, keyed by name hash,
// so a Bind takes exactly one pod stripe and one node stripe —
// admission re-validation, committed-resource accounting and the pod
// mutation all happen under those two locks, and binds touching
// different stripes commit concurrently. One global point keeps the
// cluster totally ordered anyway: events are published while the stripes
// are still held, and the watch broker draws each event's revision under
// its mutex as it appends it, so subscribers always observe the dense
// rev stream in order. The lock order is fixed — pod stripes
// (ascending), then node stripes (ascending), then the pending-queue
// mutex, then the broker, with the
// gang reservation mutex a leaf below any of them — and every mutator
// runs in one commit transaction
// (internal/apiserver/txn.go) that takes its stripes along that ladder,
// publishes while they are held and releases them at a single site:
// mutators never touch a stripe mutex directly, txn.end is the only
// unlock site, and a release of capacity is published under the node
// stripe just like a charge. That makes every SnapshotNow a consistent
// prefix of the watch stream at its revision and every prefix of the
// stream a state that never over-commits a node (property tests race
// snapshots against a bind storm, and bind/evict/gang interleavings
// against each other, to pin exactly that). Watch events ride one
// lazily-grown bounded ring, each published under the node it concerns
// (a preemption under the node the pod left): a subscriber through
// Server.Subscribe, Server.SubscribeBatch or Server.ListAndWatchBatch,
// which differ in what the caller supplies, not in what it is sent,
// reads the whole dense rev-ordered stream of pod and node events, a
// batch being a contiguous run of the ring after its cursor; one through
// Server.SubscribeNode reads one node's sub-sequence of it, in the same
// order. There are no per-kind rings.
// The watch stream is the server's only record of a commit; there is no
// second, human-readable event log. A refused bind publishes nothing: the
// caller gets the typed error, and the refusal is counted by reason in
// the plain atomics of Server.BindStats (readable mid-storm without
// touching any stripe, like the per-subscriber Server.WatchStats) and by
// workload class in apiserver_bind_rejections_total.
//
// Pod groups schedule as gangs — all or nothing (internal/core/gang.go,
// internal/apiserver/gang.go). A job that is useless until every member
// runs (distributed training, MPI) sets PodSpec.PodGroup/MinMember, and a
// scheduler with a gang director (Config.Gang) calls the director for
// those members only, at two steps of the cycle (Kubernetes' PreFilter and
// Permit points, by analogy); solo pods never reach it, and without a
// director a member binds at once. The gate comes before candidate
// generation: the gang director sums per-node slots for the group's
// remaining quorum against the scheduler's current view and rejects the
// pass early when the whole gang cannot possibly fit — no capacity is
// taken that must be given back, and an age-based priority boost
// (cycle-local, never mutating the declared priority) keeps old gangs from
// starving behind a stream of younger solo pods. After a node is chosen,
// instead of binding the member, the scheduler calls Server.Reserve — a
// conditional bind that charges the node's committed accounting under the
// same striped admission path as Bind but leaves the pod unbound, holding
// a permit (PodPermitHeld), and hands it to the director's quorum step.
// When MinMember co-members hold permits, the director commits the whole
// group atomically (CommitGroup: every member binds under the world ladder
// with consecutive revisions, no re-admission — the capacity is already
// charged); if the quorum never arrives, a sim-clock permit timeout rolls
// the gang back wholesale (ReleaseGroup: capacity returned, members
// re-queued, PodPermitReleased) and the gang retries. A gang is counted
// once, by the API server: one record per group holds its permits, its
// live bound members and how many members finished, and the director reads
// the three in one Server.GangCounts call instead of watching the stream —
// a finished member, even one evicted before it was placed, shrinks the
// quorum. Snapshot.Permits lists the held permits, so a cache primed
// mid-gang charges them from the snapshot. The scheduler's queue coalesces
// co-members within a priority tier so quorums assemble in one pass
// instead of trickling, preemption treats a gang as one victim unit priced
// at its cluster-wide membership (evict the whole gang — held and bound
// members both — or none, via PreemptGroup), and one director serves a
// whole sharded fleet, so gangs split across schedulers still reach
// cluster-wide quorum. A watch-stream replay property test pins the
// invariant: across every event prefix, under sharded contention included,
// no gang is ever partially bound outside its own atomic commit burst. The
// gang experiment (internal/experiments.GangScenario, walked through in
// examples/gang) drains a Borg backlog of k-pod gangs plus solo churn at
// 1/2/4 schedulers, measuring deadlock-freedom, time-to-full-gang, and
// post-hoc permit-leak accounting.
//
// Workloads run under per-class scheduling profiles
// (internal/core/classify.go). A pod's class is the one it declares in
// PodSpec.Class — latency-sensitive, batch or best-effort — as an SGX
// job is one that declares EPC pages; nothing is inferred. Each class
// has a fixed profile, a placement policy plus sampling and preemption
// gates, which every scheduler resolves at construction into a table
// its pass looks each pod's class up in: latency-sensitive scores
// usage-aware with a sampling floor (DefaultLatencyMinFeasible) and may
// preempt — including best-effort pods at any priority, the one
// documented exception to strictly-lower-priority victim selection;
// batch bin-packs and never preempts; best-effort spreads, never
// preempts, and its bound pods are always eviction-eligible (tracked
// from the declared class, so a sharded fleet agrees on eligibility).
// Unclassified pods take the scheduler's own policy — a determinism
// test pins the event stream of an unclassified workload to a literal
// digest. Per-class Stats.ByClass and Server.PendingCountByClass split
// the ledger by tier; class never affects pending-queue order. The
// mixed-fleet experiment (internal/experiments.ClassesMixedFleet,
// walked through in examples/classes) saturates the testbed with
// best-effort fillers, lands latency-sensitive and batch waves on top,
// and checks latency-sensitive p99 wait strictly below both other
// tiers with zero capacity violations.
//
// At the million-pod scale the pass itself is sublinear in the cluster
// (internal/core: index.go, view.go). Each scheduler owns
// one long-lived incremental ClusterView — the only kind of view the
// scheduler builds; the pass plans on it and so does the preemption
// planner, which simulates evictions on a scratch node rather than
// cloning the cluster per attempt. The cache journals which nodes each
// event touched, and SyncView replays just that delta into the view's
// pooled NodeViews — O(changed nodes), with a full rebuild only after
// epoch bumps (relist) or when the backlog of journal entries exceeds
// the cluster size. The view partitions nodes by SGX capability and
// buckets each partition by free memory (and effective free EPC) in log2
// bands, maintained incrementally on every commit; a pod's candidate
// search walks only the bands that can possibly fit its request, so
// infeasible nodes are skipped in bulk without evaluating them. On top
// of that sits kube-scheduler-style sampled scoring:
// above 100 nodes a pass stops after an adaptive number of feasible
// candidates (50% shrinking to a 5% floor, never below 100), and a
// deterministic rotating start offset spreads successive searches
// around the ring so every eligible node keeps getting considered —
// fairness across passes rather than within one. Clusters at or below
// 100 nodes — every testbed in the paper — always score every node, so
// sampling changes nothing there, which the determinism and
// cache≡rebuild property tests pin. BenchmarkMillionPod (internal/core)
// drives 5,000 nodes with a million bound pods and a 1,000-pod backlog
// through both arms;
// the indexed, sampled pass is an order of magnitude faster than the
// exhaustive scan at that scale.
//
// # Observability
//
// The cluster instruments itself by default. internal/telemetry is a
// dependency-free metrics registry — atomic counters, gauges and
// fixed-bucket histograms behind nil-safe handles, so a disabled
// registry (ClusterConfig.DisableTelemetry) costs one branch per site
// and zero allocations on the scheduling hot path. Instrumentation
// spans every layer: the scheduler times its pass and its stages
// (snapshot-sync, prefilter, filter, score, permit, preemption-plan,
// bind) and counts outcomes per workload class; the API server
// histograms bind latency and counts rejections by class, and
// publishes pending-queue depth by class and priority tier; the watch
// broker exposes per-subscriber lag, resync and drop gauges; and the
// lifecycle tracker (internal/lifecycle) folds the watch event stream,
// as the testbed's audit hands it each batch, into per-class histograms
// of submit→bind, bind→run and run durations. Each instrumented scheduling pass also records a PassTrace —
// its stage spans, the per-pod stages on sampled passes only — into a
// fixed ring readable via Cluster.PassTraces. There is one pass, not a
// timed copy beside a plain one: timing is sampled inside it, behind a
// recorder that is nil unless the pass is instrumented (and, for per-pod
// timing, detail-sampled), and detail sampling
// (Config.TraceDetailEvery) keeps the instrumented pass within a few
// percent of the uninstrumented one. That toll is measured with
// BenchmarkInstrumentedPass against BenchmarkSchedulerPass, not gated:
// CI runs the instrumented pass once, as a smoke.
//
// Metrics leave the process two ways. Cluster.WritePrometheus renders
// the registry in Prometheus text exposition format. And on every
// scrape interval the registry self-scrapes into the embedded TSDB as
// "self/"-prefixed measurements — histograms as estimated p50/p99
// quantile series plus count and sum — so Cluster.Query answers
// control-plane questions through the same InfluxQL path that serves
// container metrics:
//
//	res, _ := cluster.Query(`SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '0.99' GROUP BY class`)
//
// Cluster.Telemetry exposes the registry itself, where each count is
// exported once, by the component that counts it. The SchedulerStats
// and GangStats accessors read the same counters directly, and are the
// only reads on a telemetry-disabled cluster.
package sgxorch
