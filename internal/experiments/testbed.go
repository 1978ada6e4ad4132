// Package experiments reproduces the paper's evaluation (§VI): it replays
// Borg trace slices through the full stack (API server → SGX-aware
// scheduler → kubelets → device plugin → driver → monitoring →
// time-series queries) and renders one harness per figure (Figs. 3-11).
//
// Every experiment runs on one assembly, the Testbed: internal/stack —
// the same assembly sgxorch.NewCluster runs on — with one scheduler or a
// sharded fleet on top. A harness differs only in its TestbedConfig: the
// §VI-A replays start from the Paper preset, the multi-scheduler, gang
// and class fleets name their own nodes, shard count and admission mode.
// The harnesses audit what they run: the reference model (internal/model)
// replays the testbed's whole watch stream, and an event it refuses is a
// violation. Only the public ReplayBorgTrace, which the whole-stack
// benchmark drives, runs unaudited; FanoutDrain (fanout.go) builds no
// stack at all.
package experiments

import (
	"fmt"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/stack"
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
	// Admission is the API server's bind admission mode.
	Admission apiserver.Admission

	// audit, when set, replays the whole watch stream, first node
	// included, through the reference model.
	audit *audit
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
// events counts what it was sent, violations what the model refused.
// then, when set, sees every event after the model, with the model's
// verdict on it.
type audit struct {
	*model.Cluster
	events, violations int
	then               func(ev apiserver.WatchEvent, refused error)
}

// newAudit returns an audit whose model admits binds as mode does.
func newAudit(mode apiserver.Admission) *audit {
	return &audit{Cluster: model.New(mode)}
}

func (a *audit) apply(ev apiserver.WatchEvent) {
	a.events++
	err := a.Apply(ev)
	if err != nil {
		a.violations++
	}
	if a.then != nil {
		a.then(ev, err)
	}
}

// err reports the refused events, if any, as an error.
func (a *audit) err() error {
	if a.violations == 0 {
		return nil
	}
	return fmt.Errorf("experiments: the reference model refused %d of %d watch events", a.violations, a.events)
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
}

// NewTestbed starts the configured stack and its schedulers. The audit
// subscribes before the first node registers and unsubscribes after the
// kubelets stop, so it sees the whole stream, their NotReady tail
// included.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	st := stack.New(apiserver.WithAdmission(cfg.Admission), apiserver.WithTelemetry(cfg.Scheduler.Telemetry))
	if cfg.audit != nil {
		st.OnClose(st.Srv.Subscribe(cfg.audit.apply))
	}
	if err := st.Start(cfg.Stack); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	tb := &Testbed{Stack: st, Cfg: cfg}
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
	if tb.Fleet != nil {
		st.OnClose(tb.Fleet.Close)
		tb.Fleet.Start()
	} else {
		st.OnClose(tb.Scheduler.Close)
		tb.Scheduler.Start()
	}
	return tb, nil
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
