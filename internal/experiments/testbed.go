// Package experiments reproduces the paper's evaluation (§VI): it builds
// the 5-machine testbed of §VI-A in simulation, replays Borg trace slices
// through the full stack (API server → SGX-aware scheduler → kubelets →
// device plugin → driver → monitoring → time-series queries), and renders
// one harness per figure (Figs. 3-11).
package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// Testbed hardware constants (§VI-A): three Dell R330 (Xeon E3-1270 v6,
// 64 GiB) — one of them the Kubernetes master — plus two SGX machines
// (i7-6700, 8 GiB, 128 MiB PRM).
const (
	StdNodeRAM  = 64 * resource.GiB
	SGXNodeRAM  = 8 * resource.GiB
	StdNodeCPU  = 8000 // 4 cores × 2 hyperthreads, millicores
	SGXNodeCPU  = 8000
	DefaultEPC  = 128 * resource.MiB
	StdNodes    = 2
	SGXNodes    = 2
	MasterNodes = 1
)

// SchedulerName is the identity replayed pods request.
const SchedulerName = "sgx-aware"

// TestbedConfig parameterises a simulated cluster.
type TestbedConfig struct {
	// EPCSize is the PRM size of SGX machines (DefaultEPC when zero);
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
	// SchedulerInterval / ScrapeInterval override the control loops.
	SchedulerInterval time.Duration
	ScrapeInterval    time.Duration
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
	// TraceDetailEvery samples detailed (per-pod, per-plugin) tracing on
	// every Nth instrumented pass (scheduler default when 0).
	TraceDetailEvery int
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.EPCSize <= 0 {
		c.EPCSize = DefaultEPC
	}
	if c.Policy == nil {
		c.Policy = core.Binpack{}
	}
	if c.StdNodeCount <= 0 {
		c.StdNodeCount = StdNodes
	}
	if c.SGXNodeCount <= 0 {
		c.SGXNodeCount = SGXNodes
	}
	if c.SchedulerInterval <= 0 {
		c.SchedulerInterval = 5 * time.Second
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 10 * time.Second
	}
	return c
}

// Testbed is one assembled simulated cluster.
type Testbed struct {
	Cfg       TestbedConfig
	Clk       *clock.Sim
	Srv       *apiserver.Server
	DB        *tsdb.DB
	Scheduler *core.Scheduler
	Kubelets  []*kubelet.Kubelet

	heapster *monitor.Heapster
	probes   *monitor.DaemonSet
}

// NewTestbed assembles and starts the full stack.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewSim()
	var srvOpts []apiserver.Option
	if cfg.Telemetry != nil {
		srvOpts = append(srvOpts, apiserver.WithTelemetry(cfg.Telemetry))
	}
	srv := apiserver.New(clk, srvOpts...)
	db := tsdb.New(clk)

	tb := &Testbed{Cfg: cfg, Clk: clk, Srv: srv, DB: db}

	// The master hosts the control plane and runs no jobs (§VI-A).
	master := machine.New("master", StdNodeRAM, StdNodeCPU)
	masterKl := kubelet.New(clk, srv, master, kubelet.WithUnschedulable())
	tb.Kubelets = append(tb.Kubelets, masterKl)

	for i := 0; i < cfg.StdNodeCount; i++ {
		m := machine.New(fmt.Sprintf("std-%d", i+1), StdNodeRAM, StdNodeCPU)
		tb.Kubelets = append(tb.Kubelets, kubelet.New(clk, srv, m))
	}
	var driverOpts []isgx.Option
	if !cfg.Enforcement {
		driverOpts = append(driverOpts, isgx.WithoutEnforcement())
	}
	sgxOpt := machine.WithSGX
	if cfg.SGX2 {
		sgxOpt = machine.WithSGX2
	}
	for i := 0; i < cfg.SGXNodeCount; i++ {
		m := machine.New(fmt.Sprintf("sgx-%d", i+1), SGXNodeRAM, SGXNodeCPU,
			sgxOpt(sgx.GeometryForSize(cfg.EPCSize), driverOpts...))
		tb.Kubelets = append(tb.Kubelets, kubelet.New(clk, srv, m))
	}
	for _, kl := range tb.Kubelets {
		if err := kl.Start(); err != nil {
			return nil, fmt.Errorf("experiments: starting kubelet: %w", err)
		}
	}

	tb.heapster = monitor.NewHeapster(clk, db, cfg.ScrapeInterval)
	for _, kl := range tb.Kubelets {
		tb.heapster.AddSource(kl)
	}
	tb.heapster.Start()
	tb.probes = monitor.DeployProbes(clk, db, tb.Kubelets, cfg.ScrapeInterval)

	sched, err := core.New(clk, srv, db, core.Config{
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
		return nil, fmt.Errorf("experiments: building scheduler: %w", err)
	}
	tb.Scheduler = sched
	sched.Start()
	return tb, nil
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

// Close stops every component.
func (tb *Testbed) Close() {
	tb.Scheduler.Close()
	tb.heapster.Stop()
	tb.probes.Stop()
	for _, kl := range tb.Kubelets {
		kl.Stop()
	}
	tb.DB.Close()
}
