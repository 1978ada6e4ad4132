// Package stack is the one assembly of everything below the scheduler:
// the simulated clock, the API server, one machine and kubelet per node
// and — when a scrape interval is given — the monitoring plane (TSDB,
// Heapster, the SGX probe DaemonSet). Outside tests one caller builds it
// and the schedulers on top: internal/experiments' NewTestbed, which
// sgxorch.NewCluster and every experiment run on (core.New or
// core.NewSharded, with or without gang director, class registry and
// telemetry). internal/core's test rigs stand on it too.
//
// Assembly is two steps, New then Start, so a consumer that must see the
// watch stream from its first event — the experiments' safety audits —
// subscribes in between.
//
// Order is part of the contract. Under the simulated clock, components
// registered for the same instant fire in registration order, so the
// order in which Start and Observe register periodics decides how
// same-instant scrapes, passes and completions interleave — and with it
// every golden digest and every sim_digest. The order is: TSDB retention
// sweep → kubelets in node order → Heapster → probes → whatever the
// caller builds next (gang director, scheduler) → Observe's lifecycle
// tracker → registry self-scrape → the caller's sched.Start(), the order
// internal/experiments' NewTestbed keeps.
package stack

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/lifecycle"
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

// Config is what Start builds.
type Config struct {
	Nodes []Node
	// NoEnforcement turns off driver-level EPC limit enforcement (§V-D)
	// on every SGX machine, as in Fig. 11's "limits disabled" runs.
	NoEnforcement bool
	// ScrapeInterval is the monitoring period. Zero builds no monitoring
	// plane at all — no TSDB, Heapster or probes — which is what the
	// request-only fleet experiments run on.
	ScrapeInterval time.Duration
}

// Stack is one assembled cluster below the scheduler.
type Stack struct {
	Clk *clock.Sim
	Srv *apiserver.Server
	// DB is nil when Config.ScrapeInterval was zero.
	DB       *tsdb.DB
	Kubelets []*kubelet.Kubelet
	// Tracker is nil until Observe is called with a registry.
	Tracker *lifecycle.Tracker

	closers []func()
}

// New creates the clock and the API server. Nothing has been published
// yet: a subscription made now sees the whole stream.
func New(opts ...apiserver.Option) *Stack {
	clk := clock.NewSim()
	return &Stack{Clk: clk, Srv: apiserver.New(clk, opts...)}
}

// Start builds and starts the nodes and, with a scrape interval, the
// monitoring plane. On error everything already started is stopped.
func (s *Stack) Start(cfg Config) error {
	if cfg.ScrapeInterval > 0 {
		s.DB = tsdb.New(s.Clk)
		s.OnClose(s.DB.Close)
	}
	// Kubelets stop in node order, not in reverse: a stopping kubelet
	// publishes its node's NotReady update, an audit may still be
	// subscribed, and the determinism tests digest that tail.
	s.OnClose(func() {
		for _, kl := range s.Kubelets {
			kl.Stop()
		}
	})
	for _, n := range cfg.Nodes {
		var opts []kubelet.Option
		if n.Master {
			opts = append(opts, kubelet.WithUnschedulable())
		}
		kl := kubelet.New(s.Clk, s.Srv, n.machine(cfg.NoEnforcement), opts...)
		if err := kl.Start(); err != nil {
			s.Close()
			return fmt.Errorf("stack: starting node %s: %w", n.Name, err)
		}
		s.Kubelets = append(s.Kubelets, kl)
	}
	if s.DB == nil {
		return nil
	}
	heapster := monitor.NewHeapster(s.Clk, s.DB, cfg.ScrapeInterval)
	for _, kl := range s.Kubelets {
		heapster.AddSource(kl)
	}
	heapster.Start()
	s.OnClose(heapster.Stop)
	s.OnClose(monitor.DeployProbes(s.Clk, s.DB, s.Kubelets, cfg.ScrapeInterval).Stop)
	return nil
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

// Observe attaches the observability plane: the lifecycle tracker, which
// consumes the same pod event stream as the kubelets and turns the
// server-stamped timestamps into per-class latency histograms, and the
// registry's self-scrape into the TSDB on the given cadence, so the
// orchestrator's own health is queryable through the same InfluxQL path
// as container metrics. A nil registry attaches nothing. Call it after
// the scheduler is built and before it is started, as NewTestbed does.
func (s *Stack) Observe(reg *telemetry.Registry, interval time.Duration) {
	s.Tracker = lifecycle.New(reg)
	s.Tracker.Track(s.Srv)
	s.OnClose(s.Tracker.Close)
	s.OnClose(telemetry.StartSelfScrape(s.Clk, reg, s.DB, interval))
}

// OnClose registers fn to run at Close, before everything registered
// earlier — callers hand over what they built on the stack (the
// scheduler, a gang director) so one Close stops it all.
func (s *Stack) OnClose(fn func()) { s.closers = append(s.closers, fn) }

// Close stops every component in reverse start order (kubelets, among
// themselves, in node order). Calling it again is a no-op.
func (s *Stack) Close() {
	for len(s.closers) > 0 {
		last := len(s.closers) - 1
		fn := s.closers[last]
		s.closers = s.closers[:last]
		fn()
	}
}
