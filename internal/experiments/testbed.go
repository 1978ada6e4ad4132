// Package experiments reproduces the paper's evaluation (§VI): it replays
// Borg trace slices through the full stack (API server → SGX-aware
// scheduler → kubelets → device plugin → driver → monitoring →
// time-series queries) and renders one harness per figure (Figs. 3-11).
// The 5-machine testbed of §VI-A is a preset of internal/stack — the
// same assembly sgxorch.NewCluster runs on — with the paper's scheduler
// on top, not a second construction.
package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/stack"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// SchedulerName is the identity replayed pods request.
const SchedulerName = "sgx-aware"

// TestbedConfig parameterises a simulated cluster.
type TestbedConfig struct {
	// EPCSize is the PRM size of SGX machines (stack.DefaultEPC when zero);
	// Fig. 7 sweeps it across 32-256 MiB.
	EPCSize int64
	// Policy is the placement policy (Binpack when nil).
	Policy core.Policy
	// UseMetrics enables usage-aware scheduling (the paper's scheduler);
	// disable to emulate the request-only default scheduler.
	UseMetrics bool
	// Enforcement toggles driver-level EPC limit enforcement (§V-D);
	// Fig. 11 compares both settings.
	Enforcement bool
	// SGX2 equips SGX machines with dynamic EPC memory management
	// (§VI-G), enabling WorkloadStressEPCDynamic jobs.
	SGX2 bool
	// StdNodeCount / SGXNodeCount override the §VI-A shape when > 0.
	StdNodeCount int
	SGXNodeCount int
	// SchedulerInterval overrides the scheduling period (5 s when zero);
	// the IntervalAblation experiment sweeps it. Monitoring scrapes every
	// monitor.DefaultScrapeInterval.
	SchedulerInterval time.Duration
	// SchedulerWindow overrides the sliding metric window (Listing 1's
	// 25 s when zero) — the WindowAblation experiment sweeps it.
	SchedulerWindow time.Duration
	// Classes attaches a workload-class registry: classified pods
	// resolve per-class scheduling profiles instead of the testbed's
	// default pipeline. Nil keeps the classic single-profile scheduler.
	Classes *core.ClassRegistry
	// Telemetry instruments the API server and scheduler against the
	// registry (bind latency, pass/stage histograms, pass traces into
	// Trace). Nil keeps the stack uninstrumented.
	Telemetry *telemetry.Registry
	// Trace overrides the scheduler's pass-trace ring (a fresh default
	// ring when nil and Telemetry is set).
	Trace *telemetry.TraceRing
	// TraceDetailEvery samples detailed (per-pod stage) tracing on
	// every Nth instrumented pass (scheduler default when 0).
	TraceDetailEvery int
	// tap, when set, sees the whole watch stream, first node included.
	tap func(apiserver.WatchEvent)
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.EPCSize <= 0 {
		c.EPCSize = stack.DefaultEPC
	}
	if c.Policy == nil {
		c.Policy = core.Binpack{}
	}
	if c.StdNodeCount <= 0 {
		c.StdNodeCount = stack.StdNodes
	}
	if c.SGXNodeCount <= 0 {
		c.SGXNodeCount = stack.SGXNodes
	}
	if c.SchedulerInterval <= 0 {
		c.SchedulerInterval = 5 * time.Second
	}
	return c
}

// Testbed is the §VI-A cluster: the stack preset plus the paper's
// scheduler. Close (the stack's) stops the scheduler too.
type Testbed struct {
	*stack.Stack
	Cfg       TestbedConfig
	Scheduler *core.Scheduler
}

// NewTestbed starts the §VI-A preset of the stack — the master in front
// of the configured fleet — and the paper's scheduler on it.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg = cfg.withDefaults()
	st := stack.New(apiserver.WithTelemetry(cfg.Telemetry))
	if cfg.tap != nil {
		st.OnClose(st.Srv.Subscribe(cfg.tap))
	}
	if err := st.Start(stack.Config{
		Nodes:          stack.WithMaster(stack.Fleet(cfg.StdNodeCount, cfg.SGXNodeCount, cfg.EPCSize, cfg.SGX2)),
		NoEnforcement:  !cfg.Enforcement,
		ScrapeInterval: monitor.DefaultScrapeInterval,
	}); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sched, err := core.New(st.Clk, st.Srv, st.DB, core.Config{
		Name:             SchedulerName,
		Policy:           cfg.Policy,
		Interval:         cfg.SchedulerInterval,
		Window:           cfg.SchedulerWindow,
		UseMetrics:       cfg.UseMetrics,
		Classes:          cfg.Classes,
		Telemetry:        cfg.Telemetry,
		Trace:            cfg.Trace,
		TraceDetailEvery: cfg.TraceDetailEvery,
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("experiments: building scheduler: %w", err)
	}
	st.OnClose(sched.Close)
	sched.Start()
	return &Testbed{Stack: st, Cfg: cfg, Scheduler: sched}, nil
}

// UsableEPCPerNode returns the application-usable EPC bytes of one SGX
// node.
func (tb *Testbed) UsableEPCPerNode() int64 {
	return sgx.GeometryForSize(tb.Cfg.EPCSize).UsableBytes()
}

// SGXNodeNames lists the SGX-enabled node names.
func (tb *Testbed) SGXNodeNames() []string {
	var out []string
	for _, kl := range tb.Kubelets {
		if kl.Plugin() != nil {
			out = append(out, kl.NodeName())
		}
	}
	return out
}
