// Package telemetry is the orchestrator's own monitoring pipeline: a
// lock-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms), a ring-buffered per-pass scheduling trace, Prometheus
// text exposition, and a self-scrape that writes the registry into the
// cluster's internal/tsdb — so the orchestrator's health is queryable
// through the same InfluxQL path the paper uses for container metrics
// (Listing 1), closing the monitoring loop on the scheduler itself.
//
// The whole package is built for hot paths:
//
//   - Every handle (Counter, Gauge, Histogram and their labeled Vec
//     forms) is nil-safe: methods on a nil handle are no-ops. A nil
//     *Registry hands out nil handles everywhere, so "telemetry
//     disabled" is a single nil check at instrumentation sites and adds
//     zero allocations and zero atomic traffic to the code it wraps.
//   - Updates are single atomic operations; no metric update ever takes
//     a lock. The registry mutex guards registration and export only.
//   - Labeled families resolve a label value to a pooled handle once
//     (With); callers cache the handle and the per-update cost is the
//     same single atomic as an unlabeled metric.
package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// Counter is a monotonically increasing metric. The zero value (or a nil
// pointer, the disabled form) is ready to use.
type Counter struct {
	v        atomic.Int64
	selfName string // self-scrape measurement, set at registration
}

// Add increments the counter by n (no-op on a nil handle; negative
// deltas are ignored — counters never decrease).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64-valued metric that may go up and down. Stored as
// atomic bits, so Set/Value are single lock-free operations.
type Gauge struct {
	bits     atomic.Uint64
	selfName string // self-scrape measurement, set at registration
}

// Set replaces the gauge value (no-op on a nil handle).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKey identifies one registered series: a metric name plus its
// single optional label pair (the registry's label model is one key per
// family — class, stage, subscriber — which is all the orchestrator
// needs and keeps hot-path label handling allocation-free).
type metricKey struct {
	name       string
	labelKey   string
	labelValue string
}

// compareKeys orders series by name, then label key, then label value:
// the order of every export.
func compareKeys(a, b metricKey) int {
	return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.labelKey, b.labelKey),
		strings.Compare(a.labelValue, b.labelValue))
}

// insertKey adds a newly registered k to keys, keeping them in
// compareKeys order, so that an export walks them without sorting.
func insertKey(keys []metricKey, k metricKey) []metricKey {
	i, _ := slices.BinarySearchFunc(keys, k, compareKeys)
	return slices.Insert(keys, i, k)
}

func (k metricKey) String() string {
	if k.labelKey == "" {
		return k.name
	}
	return fmt.Sprintf("%s{%s=%q}", k.name, k.labelKey, k.labelValue)
}

// Registry holds the registered metrics. A nil *Registry is the
// disabled form: every constructor returns a nil handle and every
// export is empty. Construct with New.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	histograms map[metricKey]*Histogram
	collectors []func()
	collecting bool

	// Each map's keys in compareKeys order, kept at registration.
	counterKeys, gaugeKeys, histogramKeys []metricKey
	scratch                               tsdb.Tags // ScrapeInto's one tag map
}

// New creates an enabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[metricKey]*Counter),
		gauges:     make(map[metricKey]*Gauge),
		histograms: make(map[metricKey]*Histogram),
		scratch:    tsdb.Tags{},
	}
}

// Counter returns the named counter, registering it on first use.
// Returns the same handle for the same name, so instrumentation sites
// and stats folds share one series. Nil registry → nil handle.
func (r *Registry) Counter(name string) *Counter {
	return r.counterKey(metricKey{name: name})
}

func (r *Registry) counterKey(k metricKey) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{selfName: SelfScrapeMeasurementPrefix + k.name}
		r.counters[k] = c
		r.counterKeys = insertKey(r.counterKeys, k)
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.gaugeKey(metricKey{name: name})
}

func (r *Registry) gaugeKey(k metricKey) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{selfName: SelfScrapeMeasurementPrefix + k.name}
		r.gauges[k] = g
		r.gaugeKeys = insertKey(r.gaugeKeys, k)
	}
	return g
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (ignored if already registered;
// nil bounds select DefBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histogramKey(metricKey{name: name}, bounds)
}

func (r *Registry) histogramKey(k metricKey, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		h = newHistogram(bounds)
		h.selfName = SelfScrapeMeasurementPrefix + k.name
		r.histograms[k] = h
		r.histogramKeys = insertKey(r.histogramKeys, k)
	}
	return h
}

// CounterVec is a family of counters sharing one name, partitioned by a
// single label key. With resolves a label value to its pooled handle.
type CounterVec struct {
	reg      *Registry
	name     string
	labelKey string

	mu    sync.RWMutex
	byVal map[string]*Counter
}

// CounterVec returns the named labeled counter family. Nil registry →
// nil vec (whose With returns nil handles).
func (r *Registry) CounterVec(name, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{reg: r, name: name, labelKey: labelKey, byVal: make(map[string]*Counter)}
}

// With returns the counter for one label value, registering it on first
// use. Callers on hot paths should resolve once and cache the handle.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.byVal[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	c = v.reg.counterKey(metricKey{name: v.name, labelKey: v.labelKey, labelValue: value})
	v.mu.Lock()
	v.byVal[value] = c
	v.mu.Unlock()
	return c
}

// GaugeVec is a family of gauges partitioned by a single label key.
type GaugeVec struct {
	reg      *Registry
	name     string
	labelKey string

	mu    sync.RWMutex
	byVal map[string]*Gauge
}

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, labelKey string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{reg: r, name: name, labelKey: labelKey, byVal: make(map[string]*Gauge)}
}

// With returns the gauge for one label value, registering it on first
// use.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g, ok := v.byVal[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	g = v.reg.gaugeKey(metricKey{name: v.name, labelKey: v.labelKey, labelValue: value})
	v.mu.Lock()
	v.byVal[value] = g
	v.mu.Unlock()
	return g
}

// HistogramVec is a family of histograms partitioned by a single label
// key; every member shares the family's bucket bounds.
type HistogramVec struct {
	reg      *Registry
	name     string
	labelKey string
	bounds   []float64

	mu    sync.RWMutex
	byVal map[string]*Histogram
}

// HistogramVec returns the named labeled histogram family (nil bounds
// select DefBuckets).
func (r *Registry) HistogramVec(name, labelKey string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{reg: r, name: name, labelKey: labelKey, bounds: bounds, byVal: make(map[string]*Histogram)}
}

// With returns the histogram for one label value, registering it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h, ok := v.byVal[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	h = v.reg.histogramKey(metricKey{name: v.name, labelKey: v.labelKey, labelValue: value}, v.bounds)
	v.mu.Lock()
	v.byVal[value] = h
	v.mu.Unlock()
	return h
}

// RegisterCollector adds a callback invoked before every export
// (WritePrometheus, ScrapeInto, Collect). Collectors pull point-in-time
// state — queue depths, watch lag, folded legacy stats — into gauges at
// read time, so live paths pay nothing for them. No-op on nil.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Collect runs the registered collectors, refreshing collector-backed
// gauges. Reentrant calls from within a collector are ignored.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.collecting {
		r.mu.Unlock()
		return
	}
	r.collecting = true
	fns := r.collectors
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	r.mu.Lock()
	r.collecting = false
	r.mu.Unlock()
}
