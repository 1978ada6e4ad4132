// Package experiments reproduces the paper's evaluation (§VI): it replays
// Borg trace slices through the full stack (API server → SGX-aware
// scheduler → kubelets → device plugin → driver → monitoring →
// time-series queries) and renders one harness per figure (Figs. 3-11).
//
// Every experiment runs on one assembly, the Testbed: the simulated
// clock, the API server, one machine and kubelet per node, the monitoring
// plane (TSDB, Heapster, the SGX probe DaemonSet) and one scheduler or a
// sharded fleet on top, all built by NewTestbed. sgxorch.NewCluster runs
// on it too: the shipped cluster is one more TestbedConfig, a
// class-aware, instrumented scheduler with a gang director. A harness
// differs only in its TestbedConfig: the §VI-A replays start from the
// Paper preset, the multi-scheduler, gang and class fleets name their own
// nodes, shard count and admission mode.
// Every testbed audits what it runs: the reference model (internal/model)
// replays its whole watch stream under the testbed's own admission mode,
// and an event it refuses is a violation. That holds for the shipped
// cluster and the public ReplayBorgTrace as for every harness;
// FanoutDrain (fanout.go) builds no stack at all.
package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/lifecycle"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// SchedulerName is the identity replayed pods request.
const SchedulerName = "sgx-aware"

// Testbed hardware constants (§VI-A): three Dell R330 (Xeon E3-1270 v6,
// 64 GiB) — one of them the Kubernetes master — plus two SGX machines
// (i7-6700, 8 GiB, 128 MiB PRM).
const (
	StdNodeRAM = 64 * resource.GiB
	SGXNodeRAM = 8 * resource.GiB
	NodeCPU    = 8000 // 4 cores × 2 hyperthreads, millicores, on both models
	DefaultEPC = 128 * resource.MiB
	StdNodes   = 2
	SGXNodes   = 2
)

// Node describes one machine of the cluster.
type Node struct {
	Name      string
	RAMBytes  int64
	CPUMillis int64
	// EPCSize is the machine's PRM size; zero means no SGX package.
	EPCSize int64
	// SGX2 adds dynamic EPC memory management (EDMM, §VI-G) to an SGX
	// machine.
	SGX2 bool
	// Master marks the node unschedulable: it hosts the control plane and
	// runs no jobs (§VI-A).
	Master bool
}

// Fleet returns std standard and sgx SGX worker machines of the §VI-A
// models, named std-1… and sgx-1…, the SGX ones with epc bytes of PRM.
func Fleet(std, sgx int, epc int64, sgx2 bool) []Node {
	nodes := make([]Node, 0, std+sgx)
	for i := 1; i <= std; i++ {
		nodes = append(nodes, Node{Name: fmt.Sprintf("std-%d", i), RAMBytes: StdNodeRAM, CPUMillis: NodeCPU})
	}
	for i := 1; i <= sgx; i++ {
		nodes = append(nodes, Node{Name: fmt.Sprintf("sgx-%d", i), RAMBytes: SGXNodeRAM, CPUMillis: NodeCPU, EPCSize: epc, SGX2: sgx2})
	}
	return nodes
}

// WithMaster puts the §VI-A master in front of the workers.
func WithMaster(workers []Node) []Node {
	master := Node{Name: "master", RAMBytes: StdNodeRAM, CPUMillis: NodeCPU, Master: true}
	return append([]Node{master}, workers...)
}

// PaperTestbed is the §VI-A cluster: the master, two standard and two
// SGX machines.
func PaperTestbed() []Node {
	return WithMaster(Fleet(StdNodes, SGXNodes, DefaultEPC, false))
}

func (n Node) machine(noEnforcement bool) *machine.Machine {
	if n.EPCSize == 0 {
		return machine.New(n.Name, n.RAMBytes, n.CPUMillis)
	}
	var driverOpts []isgx.Option
	if noEnforcement {
		driverOpts = append(driverOpts, isgx.WithoutEnforcement())
	}
	sgxOpt := machine.WithSGX
	if n.SGX2 {
		sgxOpt = machine.WithSGX2
	}
	return machine.New(n.Name, n.RAMBytes, n.CPUMillis, sgxOpt(sgx.GeometryForSize(n.EPCSize), driverOpts...))
}

// TestbedConfig is one experiment's cluster: its nodes and monitoring,
// the scheduler configuration on top, and how the schedulers run.
type TestbedConfig struct {
	Nodes []Node
	// NoEnforcement turns off driver-level EPC limit enforcement (§V-D)
	// on every SGX machine, as in Fig. 11's "limits disabled" runs.
	NoEnforcement bool
	// ScrapeInterval is the monitoring period. Zero builds no monitoring
	// plane at all — no TSDB, Heapster, probes or self-scrape — which is
	// what the request-only fleet experiments run on.
	ScrapeInterval time.Duration
	Scheduler      core.Config
	// Shards > 0 builds a fleet of that many core.NewSharded members
	// sharing Scheduler; zero builds one core.New scheduler.
	Shards int
	// Concurrent runs the fleet's rounds on real goroutines (benchmarks
	// and -race only; conflict counts become nondeterministic).
	Concurrent bool
	// Gangs attaches one gang director that every member shares.
	Gangs bool
	// Admission is the API server's bind admission mode, and the mode the
	// audit's reference model admits charges in.
	Admission apiserver.Admission

	// onEvent, when set, sees every event after the audit, with the model
	// the event left and the model's verdict on it.
	onEvent func(m *model.Cluster, ev apiserver.WatchEvent, refused error)
}

// Paper returns the §VI-A testbed: the master in front of two standard
// and two SGX machines with epc bytes of PRM (DefaultEPC when zero),
// monitored every monitor.DefaultScrapeInterval with EPC limits enforced,
// under the paper's usage-aware binpack scheduler.
func Paper(epc int64) TestbedConfig {
	if epc == 0 {
		epc = DefaultEPC
	}
	return TestbedConfig{
		Nodes:          WithMaster(Fleet(StdNodes, SGXNodes, epc, false)),
		ScrapeInterval: monitor.DefaultScrapeInterval,
		Scheduler:      core.Config{Name: SchedulerName, Policy: core.Binpack{}, UseMetrics: true},
	}
}

// audit replays a testbed's watch stream through the reference model:
// events counts what it was sent, violations what the model refused, and
// gauge (nil without telemetry) exports violations as model_violations.
// Each batch then goes on to the lifecycle tracker (nil without
// telemetry), which reads the same stream in the same order.
type audit struct {
	*model.Cluster
	events, violations int
	gauge              *telemetry.Gauge
	tracker            *lifecycle.Tracker
	then               func(m *model.Cluster, ev apiserver.WatchEvent, refused error)
}

func (a *audit) apply(evs []apiserver.WatchEvent) {
	for _, ev := range evs {
		a.events++
		err := a.Apply(ev)
		if err != nil {
			a.violations++
			a.gauge.Set(float64(a.violations))
		}
		if a.then != nil {
			a.then(a.Cluster, ev, err)
		}
	}
	a.tracker.Consume(evs)
}

// Testbed is a started cluster: the clock, the API server, the kubelets
// and the monitoring plane, with its scheduler (Shards zero) or sharded
// fleet and the gang director they share on top. Close stops them all.
type Testbed struct {
	Clk *clock.Sim
	Srv *apiserver.Server
	// DB is nil when ScrapeInterval is zero.
	DB       *tsdb.DB
	Kubelets []*kubelet.Kubelet
	// Tracker is nil without Scheduler.Telemetry; the audit feeds it.
	Tracker   *lifecycle.Tracker
	Cfg       TestbedConfig
	Scheduler *core.Scheduler
	Fleet     *core.ShardedSchedulers
	Gang      *core.GangDirector
	audit     *audit
	closers   []func()
}

// NewTestbed builds and starts the configured cluster under the audit.
//
// Order is part of the result: under the simulated clock, what registers
// for one instant fires in registration order, so the order below decides
// how same-instant scrapes, passes and completions interleave — and with
// it every golden digest and sim_digest. NewTestbed builds, in this order:
//  1. the clock and the API server;
//  2. the audit's subscription, before the first node registers, so it
//     sees the whole stream — the kubelets' NotReady tail at Close
//     included — with, under Scheduler.Telemetry, the lifecycle tracker
//     it hands each batch to;
//  3. the TSDB, with a scrape interval;
//  4. the closer that stops the kubelets;
//  5. one machine and kubelet per node, in node order;
//  6. Heapster over every kubelet and its scrape timer, with a scrape
//     interval;
//  7. one SGX probe per SGX node (monitor.NewProbes, the paper's
//     DaemonSet) and its scrape timer, in node order, with a scrape
//     interval;
//  8. the gang director, with Gangs;
//  9. the scheduler or the sharded fleet, and its closer;
//  10. with Scheduler.Telemetry, the collector exporting the gang
//     director's counts (the audit's violations are exported as they
//     happen);
//  11. with Scheduler.Telemetry and a scrape interval, the timer of the
//     registry's self-scrape into the TSDB;
//  12. the pass timer, armed last: ScheduleOnce, or the fleet's
//     RunRound, every Scheduler.Interval (core.DefaultInterval when
//     zero).
//
// Every periodic timer of the stack is armed here: the scheduler, the
// fleet and the collectors expose only their step and arm nothing, so
// this one function body holds the order. The TSDB's retention sweep is
// its own. A kubelet that fails to start stops everything already
// started.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) { return newTestbed(clock.NewSim(), cfg) }

// newTestbed is NewTestbed on a given clock, which a test can still read
// when the start fails.
func newTestbed(clk *clock.Sim, cfg TestbedConfig) (*Testbed, error) {
	reg := cfg.Scheduler.Telemetry
	tb := &Testbed{Clk: clk, Srv: apiserver.New(clk, apiserver.WithAdmission(cfg.Admission), apiserver.WithTelemetry(reg)), Cfg: cfg}
	onClose := func(fn func()) { tb.closers = append(tb.closers, fn) }
	tb.Tracker = lifecycle.New(reg)
	tb.audit = &audit{Cluster: model.New(cfg.Admission), gauge: reg.Gauge("model_violations"), tracker: tb.Tracker, then: cfg.onEvent}
	onClose(tb.Srv.SubscribeBatch(tb.audit.apply, nil))
	if cfg.ScrapeInterval > 0 {
		tb.DB = tsdb.New(clk)
		onClose(tb.DB.Close)
	}
	// Kubelets stop in node order, not in reverse: a stopping kubelet
	// publishes its node's NotReady update, the audit is still
	// subscribed, and the determinism tests digest that tail.
	onClose(func() {
		for _, kl := range tb.Kubelets {
			kl.Stop()
		}
	})
	for _, n := range cfg.Nodes {
		var opts []kubelet.Option
		if n.Master {
			opts = append(opts, kubelet.WithUnschedulable())
		}
		kl := kubelet.New(clk, tb.Srv, n.machine(cfg.NoEnforcement), opts...)
		if err := kl.Start(); err != nil {
			tb.Close()
			return nil, fmt.Errorf("experiments: starting node %s: %w", n.Name, err)
		}
		tb.Kubelets = append(tb.Kubelets, kl)
	}
	if tb.DB != nil {
		heapster := monitor.NewHeapster(nil, tb.DB, 0)
		for _, kl := range tb.Kubelets {
			heapster.AddSource(kl)
		}
		onClose(clock.Periodic(clk, cfg.ScrapeInterval, heapster.Scrape))
		for _, probe := range monitor.NewProbes(tb.DB, tb.Kubelets) {
			onClose(clock.Periodic(clk, cfg.ScrapeInterval, probe.Scrape))
		}
	}
	if cfg.Gangs {
		tb.Gang = core.NewGangDirector(clk, tb.Srv, core.GangConfig{})
		onClose(tb.Gang.Close)
		cfg.Scheduler.Gang = tb.Gang
	}
	var err error
	if cfg.Shards == 0 {
		tb.Scheduler, err = core.New(clk, tb.Srv, tb.DB, cfg.Scheduler)
	} else {
		tb.Fleet, err = core.NewSharded(clk, tb.Srv, tb.DB, cfg.Scheduler, cfg.Shards, cfg.Concurrent)
	}
	if err != nil {
		tb.Close()
		return nil, fmt.Errorf("experiments: building scheduler: %w", err)
	}
	var pass func()
	if fleet := tb.Fleet; fleet != nil {
		onClose(fleet.Close)
		pass = func() { fleet.RunRound() }
	} else {
		sched := tb.Scheduler
		onClose(sched.Close)
		pass = func() { sched.ScheduleOnce() }
	}
	if reg != nil {
		if gang := tb.Gang; gang != nil {
			commits, timeouts := reg.Gauge("gang_commits"), reg.Gauge("gang_timeouts")
			reg.RegisterCollector(func() {
				gs := gang.Stats()
				commits.Set(float64(gs.Commits))
				timeouts.Set(float64(gs.Timeouts))
			})
		}
		// The self-scrape makes the orchestrator's own health queryable
		// through the same InfluxQL path as container metrics.
		if db := tb.DB; db != nil {
			onClose(clock.Periodic(clk, cfg.ScrapeInterval, func() { reg.ScrapeInto(db) }))
		}
	}
	interval := cfg.Scheduler.Interval
	if interval <= 0 {
		interval = core.DefaultInterval
	}
	onClose(clock.Periodic(clk, interval, pass))
	return tb, nil
}

// Close stops every component in reverse start order (kubelets, among
// themselves, in node order). Calling it again is a no-op.
func (tb *Testbed) Close() {
	for len(tb.closers) > 0 {
		last := len(tb.closers) - 1
		fn := tb.closers[last]
		tb.closers = tb.closers[:last]
		fn()
	}
}

// close stops the testbed and returns the audit's verdict on all it ran.
func (tb *Testbed) close() error {
	tb.Close()
	if a := tb.audit; a.violations > 0 {
		return fmt.Errorf("experiments: the reference model refused %d of %d watch events", a.violations, a.events)
	}
	return nil
}

// Submit creates pod for the testbed's scheduler, or for its fleet
// member when it runs a fleet.
func (tb *Testbed) Submit(pod *api.Pod) error {
	if tb.Fleet != nil {
		tb.Fleet.Assign(pod)
	} else {
		pod.Spec.SchedulerName = tb.Cfg.Scheduler.Name
	}
	return tb.Srv.CreatePod(pod)
}
