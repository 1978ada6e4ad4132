package telemetry

import "github.com/sgxorch/sgxorch/internal/tsdb"

// SelfScrapeMeasurementPrefix namespaces the registry's series in the
// TSDB, keeping the orchestrator's own health apart from container
// measurements like "sgx/epc" while riding the identical storage and
// InfluxQL query path.
const SelfScrapeMeasurementPrefix = "self/"

// Tag keys used by the self-scrape.
const (
	// TagQuantile distinguishes a histogram's estimated quantile series
	// ("0.5", "0.99") from each other.
	TagQuantile = "quantile"
	// TagStat distinguishes a histogram's count and sum series.
	TagStat = "stat"
)

// scrapeQuantiles are the per-histogram quantile series the self-scrape
// materialises; raw bucket counts stay in the registry (Prometheus
// export) — the TSDB gets the estimates experiments actually query.
var scrapeQuantiles = []struct {
	q   float64
	tag string
}{{0.5, "0.5"}, {0.99, "0.99"}}

// ScrapeInto writes the registry's current state into the database as
// ordinary measurements at the database's current time: counters and
// gauges as "self/<name>" (label pair carried as a tag), histograms as
// quantile series tagged quantile="0.5"/"0.99" plus count and sum
// series tagged stat="count"/"sum". Registered collectors run first.
// No-op on a nil registry.
func (r *Registry) ScrapeInto(db *tsdb.DB) {
	if r == nil || db == nil {
		return
	}
	r.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()

	// One tag map serves every write: the database clones it for a new
	// series and otherwise only reads it during the call.
	tags := func(k metricKey, extraKey, extraVal string) tsdb.Tags {
		clear(r.scratch)
		if k.labelKey != "" {
			r.scratch[k.labelKey] = k.labelValue
		}
		if extraKey != "" {
			r.scratch[extraKey] = extraVal
		}
		return r.scratch
	}
	for _, k := range r.counterKeys {
		c := r.counters[k]
		db.WriteNow(c.selfName, tags(k, "", ""), float64(c.Value()))
	}
	for _, k := range r.gaugeKeys {
		g := r.gauges[k]
		db.WriteNow(g.selfName, tags(k, "", ""), g.Value())
	}
	for _, k := range r.histogramKeys {
		h := r.histograms[k]
		if h.Count() == 0 {
			continue // no estimate to publish yet
		}
		for _, sq := range scrapeQuantiles {
			db.WriteNow(h.selfName, tags(k, TagQuantile, sq.tag), h.Quantile(sq.q))
		}
		db.WriteNow(h.selfName, tags(k, TagStat, "count"), float64(h.Count()))
		db.WriteNow(h.selfName, tags(k, TagStat, "sum"), h.Sum())
	}
}
