package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/lifecycle"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// The control-loop periods both assemblies default to.
const (
	schedulerInterval = 5 * time.Second
	scrapeInterval    = 10 * time.Second
)

// Span names of the in-situ traced run. A "step" is one simulation event
// and the root of whatever the event calls; "harness.*" spans are the
// benchmark's own work (completion predicate, Fig. 7 sampling, outcome
// collection) kept apart so it is not charged to a layer.
const (
	spanStep      = "step"
	spanDone      = "harness.done"
	spanSample    = "harness.sample"
	spanCreate    = "apiserver.create"
	spanPass      = "core.pass"
	spanPassIdle  = "core.pass.idle" // a pass that bound nothing
	spanHeapster  = "monitor.heapster"
	spanProbe     = "monitor.probe"
	spanTelemetry = "telemetry.scrape"
)

// nodeSpec is one machine of a simulated stack.
type nodeSpec struct {
	name   string
	ram    int64
	sgx    bool
	master bool
}

// stackConfig selects which of the two public assemblies a simStack
// mirrors: experiments.NewTestbed (ReplayBorgTrace's stack — bare
// scheduler, no instrumentation) or sgxorch.NewCluster (the product —
// gang director, class registry and, unless noTelemetry, the metrics
// registry, pass-trace ring, lifecycle tracker and self-scrape).
type stackConfig struct {
	nodes       []nodeSpec
	scheduler   string
	product     bool
	noTelemetry bool
}

// simStack is the whole simulated stack assembled from the layers'
// public constructors, in the same order as the public assemblies, with
// one difference: the periodic components are not Start()ed. The harness
// registers its own clock.Periodic callbacks in their place — same
// period, same registration order, so events sharing a timestamp fire in
// the same sequence — and each callback wraps the component's tick in a
// span. The sim digest of a traced run equals the untraced one, which is
// the proof that this harness measures the same computation.
type simStack struct {
	tr  *tracer
	clk *clock.Sim
	srv *apiserver.Server
	db  *tsdb.DB

	kubelets []*kubelet.Kubelet
	sched    *core.Scheduler
	gang     *core.GangDirector
	reg      *telemetry.Registry
	tracker  *lifecycle.Tracker

	stops []func()
	// step is the open root span; wrapped calls parent to it.
	step int32
	// peakPending is the deepest queue any pass started against.
	peakPending int
	// monitorPoints/selfPoints count TSDB writes by origin: container
	// metrics from the collectors, "self/…" from the telemetry scrape.
	monitorPoints, selfPoints int
}

func newSimStack(tr *tracer, cfg stackConfig, cp *capture) (*simStack, error) {
	s := &simStack{tr: tr, clk: clock.NewSim(), step: noSpan}
	var srvOpts []apiserver.Option
	var ring *telemetry.TraceRing
	if cfg.product && !cfg.noTelemetry {
		s.reg = telemetry.New()
		ring = telemetry.NewTraceRing(0)
		srvOpts = append(srvOpts, apiserver.WithTelemetry(s.reg))
	}
	s.srv = apiserver.New(s.clk, srvOpts...)
	s.db = tsdb.New(s.clk)
	// The capture subscribes first so the mutation log opens with the
	// node registrations; it only records, so where it sits in the sync
	// delivery order changes nothing any other subscriber sees.
	cp.attach(s.srv, false, s.db)
	s.db.OnWrite(func(measurement string, _ tsdb.Tags, _ float64, _ time.Time) {
		if strings.HasPrefix(measurement, telemetry.SelfScrapeMeasurementPrefix) {
			s.selfPoints++
		} else {
			s.monitorPoints++
		}
	})

	for _, n := range cfg.nodes {
		var opts []machine.Option
		if n.sgx {
			opts = append(opts, machine.WithSGX(sgx.GeometryForSize(128*resource.MiB)))
		}
		var klOpts []kubelet.Option
		if n.master {
			klOpts = append(klOpts, kubelet.WithUnschedulable())
		}
		kl := kubelet.New(s.clk, s.srv, machine.New(n.name, n.ram, 8000, opts...), klOpts...)
		if err := kl.Start(); err != nil {
			return nil, fmt.Errorf("starting node %s: %w", n.name, err)
		}
		s.kubelets = append(s.kubelets, kl)
	}

	heapster := monitor.NewHeapster(s.clk, s.db, scrapeInterval)
	for _, kl := range s.kubelets {
		heapster.AddSource(kl)
	}
	s.every(scrapeInterval, spanHeapster, heapster.Scrape)
	for _, kl := range s.kubelets {
		if kl.Plugin() == nil || kl.Plugin().DeviceCount() == 0 {
			continue
		}
		s.every(scrapeInterval, spanProbe, monitor.NewProbe(s.clk, s.db, kl, scrapeInterval).Scrape)
	}

	schedCfg := core.Config{
		Name:       cfg.scheduler,
		Policy:     core.Binpack{},
		Interval:   schedulerInterval,
		UseMetrics: true,
	}
	if cfg.product {
		s.gang = core.NewGangDirector(s.clk, s.srv, core.GangConfig{})
		schedCfg.Gang = s.gang
		schedCfg.Classes = core.NewClassRegistry(core.NewWorkloadClassifier(core.ClassifierConfig{}))
		schedCfg.Telemetry = s.reg
		schedCfg.Trace = ring
	}
	sched, err := core.New(s.clk, s.srv, s.db, schedCfg)
	if err != nil {
		return nil, fmt.Errorf("building scheduler: %w", err)
	}
	s.sched = sched
	if s.reg != nil {
		s.tracker = lifecycle.New(s.reg)
		s.tracker.Track(s.srv)
		s.registerFacadeCollectors(cfg.scheduler)
		s.every(scrapeInterval, spanTelemetry, func() { s.reg.ScrapeInto(s.db) })
	}
	s.stops = append(s.stops, clock.Periodic(s.clk, schedulerInterval, s.pass))
	return s, nil
}

// every registers f on the clock under a span, in place of a component's
// own Start().
func (s *simStack) every(interval time.Duration, name string, f func()) {
	s.stops = append(s.stops, clock.Periodic(s.clk, interval, func() {
		id := s.tr.begin(name, s.step)
		f()
		s.tr.end(id)
	}))
}

// pass is one traced scheduling pass.
func (s *simStack) pass() {
	if n := s.srv.PendingCount(); n > s.peakPending {
		s.peakPending = n
	}
	id := s.tr.begin(spanPass, s.step)
	bound := s.sched.ScheduleOnce()
	s.tr.end(id)
	if bound == 0 {
		s.tr.rename(id, spanPassIdle)
	}
}

// createPod is the traced Server.CreatePod.
func (s *simStack) createPod(pod *api.Pod) error {
	id := s.tr.begin(spanCreate, s.step)
	err := s.srv.CreatePod(pod)
	s.tr.end(id)
	return err
}

// run drives the simulation one event at a time — clock.Sim.Run with a
// root span around every step — until done holds or the horizon passes.
func (s *simStack) run(done func() bool, horizon time.Time) bool {
	check := func() bool {
		id := s.tr.begin(spanDone, noSpan)
		ok := done()
		s.tr.end(id)
		return ok
	}
	for {
		if check() {
			return true
		}
		if s.clk.Now().After(horizon) {
			return false
		}
		s.step = s.tr.begin(spanStep, noSpan)
		ran := s.clk.Step()
		s.tr.end(s.step)
		s.step = noSpan
		if !ran {
			return check()
		}
	}
}

// close stops every component, in the public assemblies' order.
func (s *simStack) close() {
	for _, stop := range s.stops {
		stop()
	}
	s.tracker.Close()
	s.sched.Close()
	if s.gang != nil {
		s.gang.Close()
	}
	for _, kl := range s.kubelets {
		kl.Stop()
	}
	s.db.Close()
}

// registerFacadeCollectors mirrors Cluster.registerFacadeCollectors: the
// same cluster_* gauges folded from the same accessors at collection
// time, so a traced telemetry scrape writes the series the product's
// scrape writes.
func (s *simStack) registerFacadeCollectors(scheduler string) {
	reg := s.reg
	g := func(name string) *telemetry.Gauge { return reg.Gauge(name) }
	passes, bound, unsched := g("cluster_scheduler_passes"), g("cluster_scheduler_bound"), g("cluster_scheduler_unschedulable")
	preemptions, victims := g("cluster_scheduler_preemptions"), g("cluster_scheduler_victims")
	attempts, bBound := g("cluster_bind_attempts"), g("cluster_bind_bound")
	rejPod, rejNode, rejCap := g("cluster_bind_rejected_pod_state"), g("cluster_bind_rejected_node_state"), g("cluster_bind_rejected_capacity")
	published, evicted, subscribers := g("cluster_watch_published"), g("cluster_watch_evicted"), g("cluster_watch_subscribers")
	gangCommits, gangTimeouts := g("cluster_gang_commits"), g("cluster_gang_timeouts")
	depth := reg.GaugeVec("cluster_pending_depth", "class")
	depthGauges := make(map[api.WorkloadClass]*telemetry.Gauge)
	reg.RegisterCollector(func() {
		ss := s.sched.Stats()
		passes.Set(float64(ss.Passes))
		bound.Set(float64(ss.Bound))
		unsched.Set(float64(ss.Unschedulable))
		preemptions.Set(float64(ss.Preemptions))
		victims.Set(float64(ss.Victims))
		bs := s.srv.BindStats()
		attempts.Set(float64(bs.Attempts))
		bBound.Set(float64(bs.Bound))
		rejPod.Set(float64(bs.RejectedPodState))
		rejNode.Set(float64(bs.RejectedNodeState))
		rejCap.Set(float64(bs.RejectedCapacity))
		ws := s.srv.WatchStats()
		published.Set(float64(ws.Published))
		evicted.Set(float64(ws.Evicted))
		subscribers.Set(float64(ws.Subscribers))
		gs := s.gang.Stats()
		gangCommits.Set(float64(gs.Commits))
		gangTimeouts.Set(float64(gs.Timeouts))
		live := s.srv.PendingCountByClass(scheduler)
		for class, gauge := range depthGauges {
			if _, ok := live[class]; !ok {
				gauge.Set(0)
			}
		}
		for class, n := range live {
			gauge, ok := depthGauges[class]
			if !ok {
				label := string(class)
				if label == "" {
					label = "unclassified"
				}
				gauge = depth.With(label)
				depthGauges[class] = gauge
			}
			gauge.Set(float64(n))
		}
	})
}
