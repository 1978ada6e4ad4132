package core

import (
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// This file is the package's test oracle: the from-scratch, paper-faithful
// way to look at the cluster — walk every node and pod on the API server,
// run Listing 1 through the InfluxQL engine, fuse per §IV — that the
// scheduler itself ran per pass before the event-driven cache existed. No
// production path builds a view this way any more (the pass reads usage
// through monitor.WindowMax only), so it lives here, as the reference every
// cache≡oracle property test compares an incremental view against.

// perPodPeakQuery builds the inner query of Listing 1 (and its Heapster
// twin) through the influxql AST: per-(pod, node) peak non-zero usage
// over the sliding window. Building the AST directly — instead of
// substituting the window into a query string — means the window term is
// set structurally, so rewording the query can never silently keep a
// default window. The per-node totals of Listing 1 are the GROUP BY
// nodename sum of these rows, which the oracle folds together with
// request data per §IV.
func perPodPeakQuery(measurement, alias string, window time.Duration) *influxql.Query {
	return &influxql.Query{
		Field:  influxql.Field{Func: influxql.AggMax, Arg: "value", Alias: alias},
		Source: influxql.Source{Measurement: measurement},
		Where: []influxql.Condition{
			{Subject: "value", Op: influxql.OpNeq, Number: 0},
			{Subject: "time", Op: influxql.OpGte, Offset: window, IsTime: true},
		},
		GroupBy: []string{monitor.TagPod, monitor.TagNode},
	}
}

// oracle builds reference views for one scheduler: same API server, clock
// and Config (window, metrics lag, UseMetrics), with the metrics database
// handed over by the test fixture — the scheduler does not keep it.
type oracle struct {
	s  *Scheduler
	db *tsdb.DB // may be nil when the scheduler's UseMetrics is off

	// epcQuery/memQuery are Listing 1 and its memory twin over the
	// scheduler's window.
	epcQuery *influxql.Query
	memQuery *influxql.Query
}

func newOracle(s *Scheduler, db *tsdb.DB) *oracle {
	return &oracle{
		s:        s,
		db:       db,
		epcQuery: perPodPeakQuery(monitor.MeasurementEPC, "epc", s.cfg.Window),
		memQuery: perPodPeakQuery(monitor.MeasurementMemory, "mem", s.cfg.Window),
	}
}

// oracleView is newOracle(s, db).BuildView() for one-off comparisons.
func oracleView(s *Scheduler, db *tsdb.DB) *ClusterView {
	return newOracle(s, db).BuildView()
}

// freshView is the incremental path's answer to the same question: a new
// view synced once from the scheduler's cache, as a scheduler's first pass
// would build it.
func freshView(c *ClusterCache) *ClusterView {
	v := c.NewView()
	c.SyncView(v)
	return v
}

// BuildView snapshots schedulable nodes from scratch, charging each with
// the fused usage of its live pods (measured usage × declared requests
// per §IV: "it takes their memory allocation requests into account ... At
// the same time, it fetches accurate, up-to-date metrics about memory
// usage across all nodes"). It walks every pod and runs the Listing 1
// queries through the InfluxQL engine — O(cluster) per call.
func (o *oracle) BuildView() *ClusterView {
	s := o.s
	measuredEPC, measuredMem := o.queryUsage()
	now := s.clk.Now()

	snap := s.srv.SnapshotNow()
	view := &ClusterView{}
	nodeByName := make(map[string]*NodeView)
	for _, n := range snap.Nodes {
		if n.Unschedulable || !n.Ready {
			continue
		}
		nv := &NodeView{
			Name:        n.Name,
			SGX:         n.HasSGX(),
			Allocatable: n.Allocatable,
			Used:        resource.List{},
			FreeDevices: n.Allocatable.Get(resource.EPCPages),
		}
		view.Nodes = append(view.Nodes, nv)
		nodeByName[n.Name] = nv
	}

	for _, p := range snap.Pods {
		if p.Spec.NodeName == "" || p.IsTerminal() {
			continue
		}
		nv, ok := nodeByName[p.Spec.NodeName]
		if !ok {
			continue
		}
		req := p.TotalRequests()
		k := usageKey{pod: p.Name, node: p.Spec.NodeName}
		memBytes, epcPages := podUsage(p, req, measuredMem[k], measuredEPC[k],
			now, s.cfg.Window, s.cfg.UseMetrics)
		nv.Used[resource.Memory] += memBytes
		nv.Used[resource.EPCPages] += epcPages
		// Device items are reserved by request for the pod's lifetime.
		nv.FreeDevices -= req.Get(resource.EPCPages)
	}
	// Conditional gang reservations: the pod is still unbound in the
	// snapshot's pod state, but Reserve already committed its capacity on
	// the permit's node. Charge requests directly — a reserved pod has not
	// started, so the fusion above would floor at requests anyway —
	// keeping this reference view equivalent to the event-driven cache's
	// PodPermitHeld accounting.
	for _, pm := range snap.Permits {
		nv, ok := nodeByName[pm.Node]
		if !ok {
			continue
		}
		req := snapshotPod(snap, pm.Pod).TotalRequests()
		nv.Used[resource.Memory] += req.Get(resource.Memory)
		nv.Used[resource.EPCPages] += req.Get(resource.EPCPages)
		nv.FreeDevices -= req.Get(resource.EPCPages)
	}
	view.sortNodes()
	return view
}

// sortNodes normalises node order.
func (c *ClusterView) sortNodes() {
	sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i].Name < c.Nodes[j].Name })
}

// usageKey identifies one measured series the way Listing 1's GROUP BY
// pod_name, nodename intends. Keying by pod name alone lets a stale
// series from a node the pod no longer runs on (e.g. after a drain)
// silently override the live measurement.
type usageKey struct {
	pod  string
	node string
}

// queryUsage runs the sliding-window queries and returns per-(pod, node)
// peak usage in bytes.
func (o *oracle) queryUsage() (epc, mem map[usageKey]float64) {
	epc = make(map[usageKey]float64)
	mem = make(map[usageKey]float64)
	if !o.s.cfg.UseMetrics {
		return epc, mem
	}
	if res, err := influxql.Run(o.db, o.epcQuery); err == nil {
		for _, row := range res.Rows {
			epc[usageKey{pod: row.Tags[monitor.TagPod], node: row.Tags[monitor.TagNode]}] = row.Value
		}
	}
	if res, err := influxql.Run(o.db, o.memQuery); err == nil {
		for _, row := range res.Rows {
			mem[usageKey{pod: row.Tags[monitor.TagPod], node: row.Tags[monitor.TagNode]}] = row.Value
		}
	}
	return epc, mem
}

// podUsage is the oracle's per-pod fusion of measured usage and declared
// requests: fuseUsage (view.go) — the one fusion rule, shared with the
// cache so both sides apply bit-identical arithmetic — over the pod's
// requests and start time. It returns scalars rather than a
// resource.List so the caller folds the result straight into the node's
// usage accumulators.
func podUsage(p *api.Pod, req resource.List, measuredMem, measuredEPCBytes float64, now time.Time, lag time.Duration, useMetrics bool) (memBytes, epcPages int64) {
	return fuseUsage(req.Get(resource.Memory), req.Get(resource.EPCPages),
		measuredMem, measuredEPCBytes, p.Status.StartedAt, now, lag, useMetrics)
}
