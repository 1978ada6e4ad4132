package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// metricsRW is the monitoring plane alone, writes beside reads: synthetic
// stats sources scraped by a Heapster and by SGX probes into one TSDB
// with a WindowMax attached and refreshed the way the scheduler does it,
// pods replaced at every scrape so series die and the retention sweep has
// work, and — every 5 s of simulated time — the verbatim Listing 1 and
// its memory twin through InfluxQL, plus a 10-minute range query every
// minute. One op is one sample written. The same code runs traced and
// untraced; the tracer is nil in the latter.
type metricsRW struct{}

// The queries, verbatim as §V-C prints Listing 1.
const (
	listing1 = `SELECT SUM(epc) AS epc FROM
(SELECT MAX(value) AS epc FROM "sgx/epc"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`
	listing1Memory = `SELECT SUM(mem) AS mem FROM
(SELECT MAX(value) AS mem FROM "memory/usage"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`
	rangeQuery = `SELECT MEAN(value) AS mem FROM "memory/usage" WHERE time >= now() - 10m GROUP BY nodename`
)

const (
	rwQueryEvery = 5 * time.Second
	rwRangeEvery = time.Minute
	rwPrefill    = 30 * time.Second // three scrapes: the first timed window is full
	rwCheckEvery = 16               // every 16th query tick is checked against the generator
)

// Span names of the monitoring workload.
const (
	spanGenerate = "harness.generate"
	spanRefresh  = "monitor.windowmax.refresh"
	spanListing1 = "influxql.listing1"
	spanRange    = "influxql.range"
)

func (metricsRW) name() string   { return "metrics_rw" }
func (metricsRW) opName() string { return "sample written" }

// synSample is one generated observation of a pod.
type synSample struct {
	t        time.Time
	mem, epc int64
}

// synPod is one synthetic pod: its usage steps through three levels
// around a base, so the window maximum is not simply the last sample.
type synPod struct {
	name             string
	memBase, epcBase int64
	phase            int
	hist             [3]synSample // the last three samples, oldest first
}

func (p *synPod) observe(t time.Time, tick int) synSample {
	level := int64((tick + p.phase) % 3)
	s := synSample{t: t, mem: p.memBase + level*resource.MiB, epc: p.epcBase + level*resource.EPCPageSize}
	p.hist[0], p.hist[1], p.hist[2] = p.hist[1], p.hist[2], s
	return s
}

// peak returns the pod's maximum memory and EPC sample at or after cutoff
// — what the inner query of Listing 1 computes for its series.
func (p *synPod) peak(cutoff time.Time) (mem, epc int64) {
	for _, s := range p.hist {
		if !s.t.IsZero() && !s.t.Before(cutoff) {
			mem, epc = max(mem, s.mem), max(epc, s.epc)
		}
	}
	return mem, epc
}

// synNode is one synthetic stats endpoint.
type synNode struct {
	name  string
	live  []*synPod
	dead  []*synPod // replaced pods whose last sample may still be in a window
	stats []kubelet.PodStat
}

func (n *synNode) NodeName() string            { return n.name }
func (n *synNode) PodStats() []kubelet.PodStat { return n.stats }

// synCluster generates every node's stats from one seeded source.
type synCluster struct {
	rng   *rand.Rand
	nodes []*synNode
	pods  int // pods ever created, for unique names
	tick  int
}

func newSynCluster(seed int64, nodes, podsPerNode int) *synCluster {
	c := &synCluster{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nodes; i++ {
		n := &synNode{name: fmt.Sprintf("node-%02d", i), stats: make([]kubelet.PodStat, podsPerNode)}
		for j := 0; j < podsPerNode; j++ {
			n.live = append(n.live, c.newPod())
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

func (c *synCluster) newPod() *synPod {
	c.pods++
	return &synPod{
		name:    fmt.Sprintf("pod-%06d", c.pods),
		memBase: (16 + c.rng.Int63n(2048)) * resource.MiB,
		epcBase: (1 + c.rng.Int63n(4096)) * resource.EPCPageSize,
		phase:   c.rng.Intn(3),
	}
}

// step is one scrape instant: replace churn pods, then sample every live
// pod once. The collectors read the prepared stats afterwards.
func (c *synCluster) step(now time.Time, churn int) {
	c.tick++
	cutoff := now.Add(-core.DefaultWindow)
	for _, n := range c.nodes {
		kept := n.dead[:0]
		for _, p := range n.dead {
			if !p.hist[2].t.Before(cutoff) {
				kept = append(kept, p)
			}
		}
		n.dead = kept
	}
	for i := 0; i < churn; i++ {
		n := c.nodes[c.rng.Intn(len(c.nodes))]
		slot := c.rng.Intn(len(n.live))
		n.dead = append(n.dead, n.live[slot])
		n.live[slot] = c.newPod()
	}
	for _, n := range c.nodes {
		for j, p := range n.live {
			s := p.observe(now, c.tick)
			n.stats[j] = kubelet.PodStat{PodName: p.name, MemoryBytes: s.mem, EPCBytes: s.epc}
		}
	}
}

// expected returns, per node, the sum over its pods of their window peak
// — Listing 1's answer computed from the generator's own state.
func (c *synCluster) expected(now time.Time, sgxNodes int) (mem, epc map[string]float64) {
	cutoff := now.Add(-core.DefaultWindow)
	mem, epc = make(map[string]float64), make(map[string]float64)
	for i, n := range c.nodes {
		var m, e int64
		for _, pods := range [][]*synPod{n.live, n.dead} {
			for _, p := range pods {
				pm, pe := p.peak(cutoff)
				m, e = m+pm, e+pe
			}
		}
		if m > 0 {
			mem[n.name] = float64(m)
		}
		if e > 0 && i < sgxNodes {
			epc[n.name] = float64(e)
		}
	}
	return mem, epc
}

func (w metricsRW) rep(rc *repCtx) error {
	sc := rc.sc
	var (
		clk      *clock.Sim
		db       *tsdb.DB
		wm       *monitor.WindowMax
		gen      *synCluster
		heapster *monitor.Heapster
		queries  [3]*influxql.Query
		stops    []func()
		writes   int
		err      error
	)
	tr := rc.tr
	step := noSpan
	spanned := func(name string, f func()) {
		id := tr.begin(name, step)
		f()
		tr.end(id)
	}
	// drive steps the simulation until the sentinel fires, every step a
	// root span in the traced run.
	drive := func(d time.Duration) {
		finished := false
		clk.AfterFunc(d, func() { finished = true })
		for !finished {
			step = tr.begin(spanStep, noSpan)
			clk.Step()
			tr.end(step)
			step = noSpan
		}
	}

	scrapes := 0
	rc.setup(func() {
		clk = clock.NewSim()
		db = tsdb.New(clk)
		rc.cap.attach(nil, false, db)
		db.OnWrite(func(string, tsdb.Tags, float64, time.Time) { writes++ })
		wm = monitor.NewWindowMax(clk, db, core.DefaultWindow, monitor.MeasurementEPC, monitor.MeasurementMemory)
		wm.SetOnChange(func(string, string, string, float64, bool) {})
		gen = newSynCluster(subSeed(rc.seed, rc.rep, 0), sc.rwNodes, sc.rwPods)
		heapster = monitor.NewHeapster(clk, db, scrapeInterval)
		for _, n := range gen.nodes {
			heapster.AddSource(n)
		}
		stops = append(stops, clock.Periodic(clk, scrapeInterval, func() {
			scrapes++
			spanned(spanGenerate, func() { gen.step(clk.Now(), sc.rwChurn) })
			spanned(spanHeapster, heapster.Scrape)
		}))
		for _, n := range gen.nodes[:sc.rwSGX] {
			p := monitor.NewProbe(clk, db, n, scrapeInterval)
			stops = append(stops, clock.Periodic(clk, scrapeInterval, func() { spanned(spanProbe, p.Scrape) }))
		}
		for i, text := range []string{listing1, listing1Memory, rangeQuery} {
			if queries[i], err = influxql.Parse(text); err != nil {
				return
			}
		}
		// Prefill is set-up: its spans are not the workload's.
		tr = nil
		drive(rwPrefill)
		tr = rc.tr
	})
	if err != nil {
		return fmt.Errorf("parsing query: %w", err)
	}

	// The read side joins for the timed region: the scheduler's cadence
	// (refresh the aggregator, then read both windows) and the dashboard's.
	var queryErr error
	ticks := 0
	window := func(q *influxql.Query, want map[string]float64, check bool) {
		id := tr.begin(spanListing1, step)
		t0 := time.Now()
		res, err := influxql.Run(db, q)
		rc.res.queryUS = append(rc.res.queryUS, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
		if err == nil && check {
			err = compareRows(res, want)
		}
		if err != nil {
			rc.res.failed++
			queryErr = err
		}
	}
	stops = append(stops, clock.Periodic(clk, rwQueryEvery, func() {
		ticks++
		spanned(spanRefresh, wm.Refresh)
		check := ticks%rwCheckEvery == 0
		var wantMem, wantEPC map[string]float64
		if check {
			wantMem, wantEPC = gen.expected(clk.Now(), sc.rwSGX)
		}
		window(queries[0], wantEPC, check)
		window(queries[1], wantMem, check)
	}))
	stops = append(stops, clock.Periodic(clk, rwRangeEvery, func() {
		spanned(spanRange, func() {
			if _, err := influxql.Run(db, queries[2]); err != nil {
				rc.res.failed++
				queryErr = err
			}
		})
	}))

	writesBefore, scrapesBefore := writes, scrapes
	rc.timed(func() { drive(time.Duration(sc.rwMinutes) * time.Minute) })
	samples := writes - writesBefore
	rc.res.ops = samples

	rc.cap.detach()
	if tr != nil {
		rc.addLayer("tsdb.series", float64(db.SeriesCount()))
		rc.addLayer("monitor.windowmax_series", float64(wm.SeriesCount()))
		rc.addLayer("monitor.samples", float64(samples))
		rc.addLayer("tsdb.points_written", float64(samples))
		rc.measureLiveHeap()
	}
	rc.teardown(func() {
		for _, stop := range stops {
			stop()
		}
		wm.Close()
		db.Close()
	})

	perScrape := (sc.rwNodes + sc.rwSGX) * sc.rwPods
	if want := (scrapes - scrapesBefore) * perScrape; samples != want {
		return fmt.Errorf("%d samples written, want %d scrapes × %d pods = %d", samples, scrapes-scrapesBefore, perScrape, want)
	}
	if queryErr != nil {
		return fmt.Errorf("%d queries failed, last: %w", rc.res.failed, queryErr)
	}
	return nil
}

// compareRows checks a GROUP BY nodename result against the generator's
// per-node sums. The sums are integers below 2^53, so float addition is
// exact in any order and the comparison is equality.
func compareRows(res influxql.Result, want map[string]float64) error {
	got := res.ValueByTag(monitor.TagNode)
	if len(got) != len(want) {
		return fmt.Errorf("query returned %d nodes, generator expects %d", len(got), len(want))
	}
	for node, w := range want {
		if g, ok := got[node]; !ok || g != w {
			return fmt.Errorf("node %s: query sums %v, generator expects %v", node, g, w)
		}
	}
	return nil
}
