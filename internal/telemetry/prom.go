package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): one TYPE comment per family, counters and
// gauges as plain samples, histograms as cumulative _bucket series plus
// _sum and _count. Registered collectors run first, so collector-backed
// gauges are current. Series are emitted in deterministic name/label
// order. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()

	lastType := ""
	typeLine := func(name, kind string) {
		if name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			lastType = name
		}
	}
	label := func(k metricKey, extra ...string) string {
		pairs := ""
		if k.labelKey != "" {
			pairs = fmt.Sprintf("%s=%q", k.labelKey, k.labelValue)
		}
		for i := 0; i+1 < len(extra); i += 2 {
			if pairs != "" {
				pairs += ","
			}
			pairs += fmt.Sprintf("%s=%q", extra[i], extra[i+1])
		}
		if pairs == "" {
			return ""
		}
		return "{" + pairs + "}"
	}

	for _, k := range r.counters.keys {
		typeLine(k.name, r.counters.kind)
		fmt.Fprintf(w, "%s%s %d\n", k.name, label(k), r.counters.byKey[k].Value())
	}
	for _, k := range r.gauges.keys {
		typeLine(k.name, r.gauges.kind)
		fmt.Fprintf(w, "%s%s %s\n", k.name, label(k), formatFloat(r.gauges.byKey[k].Value()))
	}
	for _, k := range r.histograms.keys {
		typeLine(k.name, r.histograms.kind)
		h := r.histograms.byKey[k]
		cum, count, sum := h.snapshotBuckets()
		for i, bound := range h.bounds {
			fmt.Fprintf(w, "%s_bucket%s %d\n", k.name, label(k, "le", formatFloat(bound)), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", k.name, label(k, "le", "+Inf"), cum[len(cum)-1])
		fmt.Fprintf(w, "%s_sum%s %s\n", k.name, label(k), formatFloat(sum))
		fmt.Fprintf(w, "%s_count%s %d\n", k.name, label(k), count)
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects: shortest
// representation, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
