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
//   - A labeled family (Vec) holds no handles of its own: With asks the
//     registry, which keeps every series once. Callers resolve a label
//     value once, at construction, and the per-update cost is the same
//     single atomic as an unlabeled metric.
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
// family — class, stage, priority — which is all the orchestrator
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

// family is one metric kind's series: the kind's exposition name, the
// handles by key, and the keys in compareKeys order, kept at
// registration so that an export walks them without sorting.
type family[M any] struct {
	kind  string
	byKey map[metricKey]*M
	keys  []metricKey
}

// Registry holds the registered metrics. A nil *Registry is the
// disabled form: every constructor returns a nil handle and every
// export is empty. Construct with New.
type Registry struct {
	mu         sync.Mutex
	counters   family[Counter]
	gauges     family[Gauge]
	histograms family[Histogram]
	collectors []func()
	collectMu  sync.Mutex // held across one Collect's collector loop
	scratch    tsdb.Tags  // ScrapeInto's one tag map
}

// New creates an enabled registry.
func New() *Registry {
	return &Registry{
		counters:   family[Counter]{kind: "counter", byKey: make(map[metricKey]*Counter)},
		gauges:     family[Gauge]{kind: "gauge", byKey: make(map[metricKey]*Gauge)},
		histograms: family[Histogram]{kind: "histogram", byKey: make(map[metricKey]*Histogram)},
		scratch:    tsdb.Tags{},
	}
}

// register returns f's handle for k, building it with mk — given the
// series' self-scrape measurement — on first use. Every metric kind and
// every labeled member registers here, so one key always yields one
// handle. A name already registered as another kind panics: its samples
// would be exported under the first kind's TYPE line.
func register[M any](r *Registry, f *family[M], k metricKey, mk func(selfName string) *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := f.byKey[k]
	if !ok {
		if kind := r.kindOf(k.name); kind != "" && kind != f.kind {
			panic(fmt.Sprintf("telemetry: %s is registered as a %s, not a %s", k.name, kind, f.kind))
		}
		m = mk(SelfScrapeMeasurementPrefix + k.name)
		f.byKey[k] = m
		f.keys = insertKey(f.keys, k)
	}
	return m
}

// kindOf returns the kind name is registered as, "" if none. Each
// family's keys are sorted by name first, and metricKey{name: name}
// sorts before every other key of that name, so one search per family
// finds it.
func (r *Registry) kindOf(name string) string {
	for _, f := range [...]struct {
		kind string
		keys []metricKey
	}{{r.counters.kind, r.counters.keys}, {r.gauges.kind, r.gauges.keys}, {r.histograms.kind, r.histograms.keys}} {
		i, _ := slices.BinarySearchFunc(f.keys, metricKey{name: name}, compareKeys)
		if i < len(f.keys) && f.keys[i].name == name {
			return f.kind
		}
	}
	return ""
}

func newCounter(selfName string) *Counter { return &Counter{selfName: selfName} }

func newGauge(selfName string) *Gauge { return &Gauge{selfName: selfName} }

// histogramMaker builds histograms over bounds (nil selects DefBuckets).
func histogramMaker(bounds []float64) func(string) *Histogram {
	return func(selfName string) *Histogram {
		h := newHistogram(bounds)
		h.selfName = selfName
		return h
	}
}

// Counter returns the named counter, registering it on first use.
// Returns the same handle for the same name, so instrumentation sites
// and stats folds share one series. Nil registry → nil handle.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name, "").With("") }

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name, "").With("") }

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (ignored if already registered;
// nil bounds select DefBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramVec(name, "", bounds).With("")
}

// Vec is a family of metrics sharing one name, partitioned by a single
// label key. It holds no handles of its own: With asks the registry, so
// a label value resolves to the same handle however many Vecs name it.
type Vec[M any] struct {
	reg   *Registry
	fam   *family[M]
	key   metricKey // name and label key; With fills in the value
	build func(selfName string) *M
}

// With returns the member for one label value, registering it on first
// use. Nil vec → nil handle. It takes the registry's lock, so hot paths
// resolve their members once, at construction.
func (v *Vec[M]) With(value string) *M {
	if v == nil {
		return nil
	}
	k := v.key
	k.labelValue = value
	return register(v.reg, v.fam, k, v.build)
}

// CounterVec returns the named labeled counter family. Nil registry →
// nil vec (whose With returns nil handles).
func (r *Registry) CounterVec(name, labelKey string) *Vec[Counter] {
	if r == nil {
		return nil
	}
	return &Vec[Counter]{r, &r.counters, metricKey{name: name, labelKey: labelKey}, newCounter}
}

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, labelKey string) *Vec[Gauge] {
	if r == nil {
		return nil
	}
	return &Vec[Gauge]{r, &r.gauges, metricKey{name: name, labelKey: labelKey}, newGauge}
}

// HistogramVec returns the named labeled histogram family; every member
// shares its bucket bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, labelKey string, bounds []float64) *Vec[Histogram] {
	if r == nil {
		return nil
	}
	return &Vec[Histogram]{r, &r.histograms, metricKey{name: name, labelKey: labelKey}, histogramMaker(bounds)}
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
// gauges. Concurrent calls — exports racing each other — take turns, and
// each runs every collector, so an export never reads a gauge its own
// call did not refresh, and no collector runs beside itself. A collector
// must not export or call Collect: it would wait on itself.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	r.mu.Lock()
	fns := r.collectors
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}
