// Package experiments reproduces the paper's evaluation (§VI): it replays
// Borg trace slices through the full stack (API server → SGX-aware
// scheduler → kubelets → device plugin → driver → monitoring →
// time-series queries) and renders one harness per figure (Figs. 3-11).
//
// Every experiment runs on one assembly, the Testbed: internal/stack with
// one scheduler or a sharded fleet on top. sgxorch.NewCluster runs on it
// too: the shipped cluster is one more TestbedConfig, a class-aware,
// instrumented scheduler with a gang director. A harness differs only in
// its TestbedConfig: the §VI-A replays start from the Paper preset, the
// multi-scheduler, gang and class fleets name their own nodes, shard
// count and admission mode.
// Every testbed audits what it runs: the reference model (internal/model)
// replays its whole watch stream under the testbed's own admission mode,
// and an event it refuses is a violation. That holds for the shipped
// cluster and the public ReplayBorgTrace as for every harness;
// FanoutDrain (fanout.go) builds no stack at all.
package experiments

import (
	"fmt"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/stack"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// SchedulerName is the identity replayed pods request.
const SchedulerName = "sgx-aware"

// TestbedConfig is one experiment's cluster: the stack it starts, the
// scheduler configuration on top, and how the schedulers run.
type TestbedConfig struct {
	Stack     stack.Config
	Scheduler core.Config
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
// and two SGX machines with epc bytes of PRM (stack.DefaultEPC when zero),
// monitored every monitor.DefaultScrapeInterval with EPC limits enforced,
// under the paper's usage-aware binpack scheduler.
func Paper(epc int64) TestbedConfig {
	if epc == 0 {
		epc = stack.DefaultEPC
	}
	return TestbedConfig{
		Stack: stack.Config{
			Nodes:          stack.WithMaster(stack.Fleet(stack.StdNodes, stack.SGXNodes, epc, false)),
			ScrapeInterval: monitor.DefaultScrapeInterval,
		},
		Scheduler: core.Config{Name: SchedulerName, Policy: core.Binpack{}, UseMetrics: true},
	}
}

// audit replays a testbed's watch stream through the reference model:
// events counts what it was sent, violations what the model refused, and
// gauge (nil without telemetry) exports violations as model_violations.
type audit struct {
	*model.Cluster
	events, violations int
	gauge              *telemetry.Gauge
	then               func(m *model.Cluster, ev apiserver.WatchEvent, refused error)
}

func (a *audit) apply(ev apiserver.WatchEvent) {
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

// Testbed is a started cluster: the stack plus its scheduler (Shards
// zero) or sharded fleet, and the gang director they share. Close (the
// stack's) stops them too.
type Testbed struct {
	*stack.Stack
	Cfg       TestbedConfig
	Scheduler *core.Scheduler
	Fleet     *core.ShardedSchedulers
	Gang      *core.GangDirector
	audit     *audit
}

// NewTestbed starts the configured stack and its schedulers under the
// audit, which subscribes before the first node registers and unsubscribes
// after the kubelets stop: it sees the whole stream, their NotReady tail
// included. With Scheduler.Telemetry set, the registry exports the audit's
// violations and the gang director's counts, and the stack's
// observability plane attaches.
//
// Order is part of the result: under the simulated clock, what registers
// for one instant fires in registration order, so the schedulers' caches
// subscribe after the stack, the tracker and the self-scrape follow, and
// the pass timers are armed last: the order every golden digest and
// sim_digest was taken in.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	reg := cfg.Scheduler.Telemetry
	st := stack.New(apiserver.WithAdmission(cfg.Admission), apiserver.WithTelemetry(reg))
	a := &audit{Cluster: model.New(cfg.Admission), gauge: reg.Gauge("model_violations"), then: cfg.onEvent}
	st.OnClose(st.Srv.Subscribe(a.apply))
	if err := st.Start(cfg.Stack); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	tb := &Testbed{Stack: st, Cfg: cfg, audit: a}
	if cfg.Gangs {
		tb.Gang = core.NewGangDirector(st.Clk, st.Srv, core.GangConfig{})
		st.OnClose(tb.Gang.Close)
		cfg.Scheduler.Gang = tb.Gang
	}
	var err error
	if cfg.Shards == 0 {
		tb.Scheduler, err = core.New(st.Clk, st.Srv, st.DB, cfg.Scheduler)
	} else {
		tb.Fleet, err = core.NewSharded(st.Clk, st.Srv, st.DB, cfg.Scheduler, cfg.Shards, cfg.Concurrent)
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("experiments: building scheduler: %w", err)
	}
	var start func()
	if tb.Fleet != nil {
		st.OnClose(tb.Fleet.Close)
		start = tb.Fleet.Start
	} else {
		st.OnClose(tb.Scheduler.Close)
		start = tb.Scheduler.Start
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
		st.Observe(reg, cfg.Stack.ScrapeInterval)
	}
	start()
	return tb, nil
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
