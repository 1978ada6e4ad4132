// Package monitor implements the paper's monitoring layer (§V-C): a
// Heapster-equivalent collector that pushes per-pod standard-memory usage
// into the time-series database, and the custom SGX metrics probe —
// deployed as a DaemonSet on SGX-enabled nodes — that pushes per-pod EPC
// usage gathered from the modified driver into the same database, "so our
// scheduler [can] use equivalent queries for SGX- and non SGX-related
// metrics".
package monitor

import (
	"slices"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// Measurement names, matching the paper's InfluxDB schema (Listing 1 uses
// "sgx/epc"; Heapster's memory metric is "memory/usage").
const (
	MeasurementEPC    = "sgx/epc"
	MeasurementMemory = "memory/usage"
)

// Tag keys used by Heapster and the probe (Listing 1 groups by pod_name
// and nodename).
const (
	TagPod  = "pod_name"
	TagNode = "nodename"
)

// DefaultScrapeInterval is how often collectors sample node stats.
// Heapster's housekeeping default is 10 s, which keeps the scheduler's
// 25 s sliding window (Listing 1) populated with 2-3 samples per pod.
const DefaultScrapeInterval = 10 * time.Second

// StatsSource abstracts the kubelet stats endpoint the collectors scrape.
// The slice PodStats returns belongs to the source and is valid until its
// next PodStats call: a collector reads it before returning and never
// keeps it, so a source may refill one buffer on every call (the kubelet
// does).
type StatsSource interface {
	NodeName() string
	PodStats() []kubelet.PodStat
}

// Heapster is the monitoring plane's one collector: every interval it
// asks each of its sources for their pods' stats and writes one point per
// pod into the database, tagged with the pod and the node. NewHeapster
// builds the paper's Heapster, which collects standard-memory usage from
// every node in the cluster (§V-C: "Kubernetes natively supports
// Heapster, a lightweight monitoring framework for containers"); NewProbe
// builds the SGX metrics probe for one SGX-enabled node, which reads EPC
// occupancy through the modified driver's interfaces and pushes it "into
// the same InfluxDB database used by Heapster" (§V-C).
type Heapster struct {
	clk      clock.Clock
	db       *tsdb.DB
	interval time.Duration
	epc      bool // writes sgx/epc from PodStat.EPCBytes, not memory/usage

	mu      sync.Mutex
	sources []StatsSource // copy-on-write: a scrape walks the slice it read under mu after unlocking
	stop    func()
}

// NewHeapster creates a memory collector writing into db, with no
// sources yet. A non-positive interval selects the default.
func NewHeapster(clk clock.Clock, db *tsdb.DB, interval time.Duration) *Heapster {
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	return &Heapster{clk: clk, db: db, interval: interval}
}

// NewProbe creates the EPC collector of one node. A non-positive
// interval selects the default.
func NewProbe(clk clock.Clock, db *tsdb.DB, source StatsSource, interval time.Duration) *Heapster {
	p := NewHeapster(clk, db, interval)
	p.epc, p.sources = true, []StatsSource{source}
	return p
}

// AddSource registers a node's stats endpoint.
func (h *Heapster) AddSource(s StatsSource) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Clip so the append copies: a scrape in flight keeps walking the old slice.
	h.sources = append(slices.Clip(h.sources), s)
}

// Start begins periodic scraping. It returns immediately; use Stop to
// halt.
func (h *Heapster) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stop != nil {
		return
	}
	h.stop = clock.Periodic(h.clk, h.interval, h.Scrape)
}

// Stop halts periodic scraping.
func (h *Heapster) Stop() {
	h.mu.Lock()
	stop := h.stop
	h.stop = nil
	h.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Scrape samples every source once, writing one point per pod: a memory
// collector's memory/usage in bytes, a probe's sgx/epc in bytes (as
// summed by Listing 1). Exposed for deterministic tests and manual
// collection.
func (h *Heapster) Scrape() {
	h.mu.Lock()
	sources := h.sources
	h.mu.Unlock()
	measurement := MeasurementMemory
	if h.epc {
		measurement = MeasurementEPC
	}
	for _, src := range sources {
		node := src.NodeName()
		for _, ps := range src.PodStats() {
			v := ps.MemoryBytes
			if h.epc {
				v = ps.EPCBytes
			}
			h.db.WriteNow(measurement, tsdb.Tags{
				TagPod:  ps.PodName,
				TagNode: node,
			}, float64(v))
		}
	}
}

// PodNode identifies one collected series: the (pod_name, nodename) pair
// Listing 1 groups by.
type PodNode struct {
	Pod  string
	Node string
}

// WindowPeak reads the trailing window of a measurement through the tsdb
// scan path and returns the peak non-zero value per (pod, node) series —
// the inner query of Listing 1 computed without materialising any points.
// It is the collectors' read-side companion: probes and Heapster write
// one series per (pod, node), and this folds each series' window in
// place.
func WindowPeak(db *tsdb.DB, measurement string, window time.Duration) map[PodNode]float64 {
	out := make(map[PodNode]float64)
	from := db.Now().Add(-window)
	db.Scan(measurement, from, time.Time{}, func(tags tsdb.Tags, pts []tsdb.Point) bool {
		key := PodNode{Pod: tags[TagPod], Node: tags[TagNode]}
		peak, seen := 0.0, false
		for _, p := range pts {
			if p.Value == 0 {
				continue
			}
			if !seen || p.Value > peak {
				peak, seen = p.Value, true
			}
		}
		if seen {
			out[key] = peak
		}
		return true
	})
	return out
}

// DaemonSet deploys probes across the cluster the way the paper does
// (§V-C): one probe per SGX-enabled node, where "the distinction between
// standard and SGX-enabled cluster nodes is made by checking for the EPC
// size advertised to Kubernetes by the device plugin".
type DaemonSet struct {
	probes []*Heapster
}

// DeployProbes creates and starts a probe on every kubelet whose device
// plugin advertises EPC pages.
func DeployProbes(clk clock.Clock, db *tsdb.DB, kubelets []*kubelet.Kubelet, interval time.Duration) *DaemonSet {
	ds := &DaemonSet{}
	for _, kl := range kubelets {
		if kl.Plugin() == nil || kl.Plugin().DeviceCount() == 0 {
			continue
		}
		p := NewProbe(clk, db, kl, interval)
		p.Start()
		ds.probes = append(ds.probes, p)
	}
	return ds
}

// Size returns the number of deployed probes.
func (d *DaemonSet) Size() int { return len(d.probes) }

// Stop halts every probe.
func (d *DaemonSet) Stop() {
	for _, p := range d.probes {
		p.Stop()
	}
}
