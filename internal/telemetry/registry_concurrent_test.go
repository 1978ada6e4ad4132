package telemetry

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// TestRegistryConcurrentRegistrationProperty: goroutines register shared
// and fresh keys through every constructor — Counter, Gauge, Histogram
// and each labeled family's With — while others export with
// WritePrometheus, ScrapeInto and Collect. One key must always yield one
// handle, and every export must carry each series exactly once, in
// compareKeys order.
func TestRegistryConcurrentRegistrationProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { registryRace(t, seed) })
	}
}

// TestRegistryCollectConcurrent: exports racing each other each run
// every collector, one collector loop at a time, so no export reads a
// gauge its own call did not refresh. Goroutines that call Collect at
// once must add up to one run of every collector per call; a collector
// that yields mid-loop hands the others every chance to overlap it.
func TestRegistryCollectConcurrent(t *testing.T) {
	const goroutines, rounds, collectors = 8, 50, 3
	r := New()
	var calls [collectors]atomic.Int64
	for i := range calls {
		r.RegisterCollector(func() {
			calls[i].Add(1)
			runtime.Gosched()
		})
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range rounds {
				r.Collect()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range calls {
		if got := calls[i].Load(); got != goroutines*rounds {
			t.Errorf("collector %d ran %d times for %d Collect calls", i, got, goroutines*rounds)
		}
	}
}

// registered is one handle a registering goroutine got back.
type registered struct {
	kind   string // counter, gauge or histogram
	key    metricKey
	handle any
}

func registryRace(t *testing.T, seed int64) {
	const writers, perWriter = 4, 100
	r := New()
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
	collected := r.Gauge("collected")
	r.RegisterCollector(func() { collected.Set(collected.Value() + 1) })

	// register draws one key, shared with every writer or this writer's
	// own, and registers it through the constructor its kind and label
	// say, observing or adding so each series has a value to export.
	// register draws one key, shared with every writer or this writer's
	// own, and registers it through the constructor its kind and label
	// say, observing or adding so each series has a value to export. A
	// name is one kind's alone.
	register := func(rng *rand.Rand, writer, i int) registered {
		kind := [3]string{"counter", "gauge", "histogram"}[rng.Intn(3)]
		name := fmt.Sprintf("%s_shared_%d", kind, rng.Intn(3))
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("%s_own_%d_%d", kind, writer, i)
		}
		k := metricKey{name: name}
		if rng.Intn(2) == 0 {
			k = metricKey{name: name + "_vec", labelKey: "class", labelValue: fmt.Sprint("c", rng.Intn(4))}
		}
		var h any
		switch labeled := k.labelKey != ""; {
		case kind == "counter" && labeled:
			h = r.CounterVec(k.name, k.labelKey).With(k.labelValue)
		case kind == "counter":
			h = r.Counter(k.name)
		case kind == "gauge" && labeled:
			h = r.GaugeVec(k.name, k.labelKey).With(k.labelValue)
		case kind == "gauge":
			h = r.Gauge(k.name)
		case labeled:
			h = r.HistogramVec(k.name, k.labelKey, nil).With(k.labelValue)
		default:
			h = r.Histogram(k.name, nil)
		}
		switch h := h.(type) {
		case *Counter:
			h.Inc()
		case *Gauge:
			h.Set(float64(i))
		case *Histogram:
			h.Observe(0.01)
		}
		return registered{kind, k, h}
	}

	got := make([][]registered, writers)
	var writing, exporting sync.WaitGroup
	done := make(chan struct{})
	exportErr := make(chan error, 3)
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			for i := range perWriter {
				got[w] = append(got[w], register(rng, w, i))
			}
		}()
	}
	exporters := []func() error{
		func() error {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				return err
			}
			_, err := exportedSeries(sb.String())
			return err
		},
		func() error { r.ScrapeInto(db); return nil },
		func() error { r.Collect(); return nil },
	}
	for _, export := range exporters {
		exporting.Add(1)
		go func() {
			defer exporting.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := export(); err != nil {
					exportErr <- err
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	exporting.Wait()
	close(exportErr)
	for err := range exportErr {
		t.Fatal(err)
	}

	// One key, one handle: across writers, and against a lookup now.
	want := map[string]registered{}
	for _, regs := range got {
		for _, reg := range regs {
			id := reg.kind + " " + reg.key.String()
			if first, ok := want[id]; ok && first.handle != reg.handle {
				t.Fatalf("%s resolved to two handles", id)
			}
			want[id] = reg
		}
	}
	for id, reg := range want {
		var now any
		switch reg.kind {
		case "counter":
			now = r.CounterVec(reg.key.name, reg.key.labelKey).With(reg.key.labelValue)
		case "gauge":
			now = r.GaugeVec(reg.key.name, reg.key.labelKey).With(reg.key.labelValue)
		default:
			now = r.HistogramVec(reg.key.name, reg.key.labelKey, nil).With(reg.key.labelValue)
		}
		if now != reg.handle {
			t.Fatalf("%s resolves to another handle after the race", id)
		}
	}

	// The final export carries exactly the registered series.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series, err := exportedSeries(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	want["gauge collected"] = registered{}
	var ids []string
	for _, s := range series {
		ids = append(ids, s.kind+" "+s.key.String())
	}
	wantIDs := slices.Sorted(maps.Keys(want))
	if slices.Sort(ids); !slices.Equal(ids, wantIDs) {
		t.Fatalf("exported %d series, registered %d", len(ids), len(wantIDs))
	}
}

// exportedSeries parses a Prometheus exposition into its series, a
// histogram read off its _count sample, and checks each is exported once
// and every kind's series run in compareKeys order, counters first, then
// gauges, then histograms.
func exportedSeries(exposition string) ([]registered, error) {
	var out []registered
	kinds := map[string]int{"counter": 0, "gauge": 1, "histogram": 2}
	family, kind := "", ""
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ = strings.Cut(rest, " ")
			continue
		}
		sample, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(sample, "{")
		if kind == "histogram" {
			if name != family+"_count" {
				continue
			}
			name = family
		}
		k := metricKey{name: name}
		if labels != "" {
			lk, lv, _ := strings.Cut(strings.TrimSuffix(labels, "}"), "=")
			k.labelKey, k.labelValue = lk, strings.Trim(lv, `"`)
		}
		s := registered{kind: kind, key: k}
		if n := len(out); n > 0 {
			prev := out[n-1]
			if c := kinds[prev.kind] - kinds[kind]; c > 0 || c == 0 && compareKeys(prev.key, k) >= 0 {
				return nil, fmt.Errorf("%s %s exported after %s %s", kind, k, prev.kind, prev.key)
			}
		}
		out = append(out, s)
	}
	return out, nil
}
