package apiserver

import (
	"maps"
	"strconv"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// bindLatencyBuckets cover the striped commit: ~1µs uncontended to
// hundreds of µs when binds race for one node's stripe.
var bindLatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// srvMetrics holds the server's registry handles, every one resolved at
// construction. Nil when telemetry is off; its methods are nil-receiver
// no-ops, so every commit-path site costs one predictable branch.
type srvMetrics struct {
	bindLatency *telemetry.Histogram
	rejections  [api.NumClasses]*telemetry.Counter // by class slot
	unknownPod  *telemetry.Counter
}

// rejected counts one refused bind against the pod's workload class.
func (m *srvMetrics) rejected(class api.WorkloadClass) {
	if m == nil {
		return
	}
	m.rejections[class.Slot()].Inc()
}

// rejectedUnknownPod counts a refused bind whose pod is unknown — there
// is no spec to read a class from.
func (m *srvMetrics) rejectedUnknownPod() {
	if m == nil {
		return
	}
	m.unknownPod.Inc()
}

// WithTelemetry instruments the server against the registry:
//
//   - apiserver_bind_latency_seconds — histogram over the Bind commit
//     (admission, accounting, event publish, synchronous delivery),
//     observed on every attempt, so its count is BindStats.Attempts;
//   - apiserver_bind_rejections_total{class=} — refused binds by the
//     pod's workload class ("unknown" when the pod no longer exists).
//     Every class's series and the unknown one are resolved here, so
//     each is exported from the start, zero until a refusal;
//   - apiserver_pending_depth{class=} and
//     apiserver_pending_depth_priority{priority=} — queue backlog
//     gauges, refreshed by a pull-time collector;
//   - apiserver_bind_bound and
//     apiserver_bind_rejected_{pod_state,node_state,capacity} — the
//     other BindStats counts, same collector;
//   - watch_{published,evicted,subscribers} — the broker's totals, and
//     watch_max_lag, watch_resyncs and watch_dropped — its delivery
//     health: the largest MaxLag of the live subscriptions and the sums
//     of their Resyncs and Dropped, same collector. The per-subscriber
//     figures are WatchStats'; no series is keyed by subscriber, so the
//     export does not grow with the fleet.
//
// Collectors run at export/scrape time only, so the commit path pays
// one histogram observation per bind and one counter increment per
// rejection — nothing else: no label lookup and no registry lock.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) {
		if reg == nil {
			return
		}
		rejections := reg.CounterVec("apiserver_bind_rejections_total", "class")
		m := &srvMetrics{
			bindLatency: reg.Histogram("apiserver_bind_latency_seconds", bindLatencyBuckets),
			unknownPod:  rejections.With("unknown"),
		}
		for i, c := range api.Classes {
			m.rejections[i] = rejections.With(c.Label())
		}
		s.metrics = m
		s.registerCollectors(reg)
	}
}

// registerCollectors publishes the pull-model gauges. The collector
// closure keeps per-priority gauge handles across runs so tiers that
// drain report zero instead of their last live value, and clears and
// refills its own scratch map on each run, so a scrape allocates only
// the broker's stats slice; the registry never runs a collector twice at
// once, so the closure state needs no lock.
func (s *Server) registerCollectors(reg *telemetry.Registry) {
	depthByClass := reg.GaugeVec("apiserver_pending_depth", "class")
	depthByPrio := reg.GaugeVec("apiserver_pending_depth_priority", "priority")
	bound := reg.Gauge("apiserver_bind_bound")
	rejPod := reg.Gauge("apiserver_bind_rejected_pod_state")
	rejNode := reg.Gauge("apiserver_bind_rejected_node_state")
	rejCapacity := reg.Gauge("apiserver_bind_rejected_capacity")
	published := reg.Gauge("watch_published")
	evicted := reg.Gauge("watch_evicted")
	subscribers := reg.Gauge("watch_subscribers")
	maxLag := reg.Gauge("watch_max_lag")
	resyncs := reg.Gauge("watch_resyncs")
	dropped := reg.Gauge("watch_dropped")

	// Every class is written each collection (zero included), so a
	// drained class's gauge cannot stick at its last backlog.
	var classGauges [api.NumClasses]*telemetry.Gauge
	for i, c := range api.Classes {
		classGauges[i] = depthByClass.With(c.Label())
	}
	prioGauges := make(map[int32]*telemetry.Gauge)
	prios := make(map[int32]int)

	reg.RegisterCollector(func() {
		clear(prios)
		s.pendingMu.Lock()
		classes := s.pending.classCounts("")
		maps.Copy(prios, s.pending.prios)
		s.pendingMu.Unlock()
		for i, c := range api.Classes {
			classGauges[i].Set(float64(classes[c]))
		}
		for prio, g := range prioGauges {
			if _, live := prios[prio]; !live {
				g.Set(0)
			}
		}
		for prio, n := range prios {
			g, ok := prioGauges[prio]
			if !ok {
				g = depthByPrio.With(strconv.FormatInt(int64(prio), 10))
				prioGauges[prio] = g
			}
			g.Set(float64(n))
		}

		bs := s.binds.snapshot()
		bound.Set(float64(bs.Bound))
		rejPod.Set(float64(bs.RejectedPodState))
		rejNode.Set(float64(bs.RejectedNodeState))
		rejCapacity.Set(float64(bs.RejectedCapacity))

		ws := s.broker.Stats()
		published.Set(float64(ws.Published))
		evicted.Set(float64(ws.Evicted))
		subscribers.Set(float64(ws.Subscribers))
		var worstLag, totalResyncs, totalDropped int64
		for _, ss := range ws.PerSubscriber {
			worstLag = max(worstLag, ss.MaxLag)
			totalResyncs += ss.Resyncs
			totalDropped += ss.Dropped
		}
		maxLag.Set(float64(worstLag))
		resyncs.Set(float64(totalResyncs))
		dropped.Set(float64(totalDropped))
	})
}
