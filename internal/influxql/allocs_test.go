package influxql

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// rangeQuery is the dashboards' range read: a plain scan, no subquery.
const rangeQuery = `SELECT MEAN(value) AS mem FROM "sgx/epc" WHERE time >= now() - 10m GROUP BY nodename`

// TestListing1AllocationsDoNotScaleWithSeries pins the read path: a query
// over 2 000 series allocates its answer — the row slice and a tag map
// per returned row — and Listing 1 its inner scan's residual predicate
// list, nothing more, because the aggregator's groups, value slab,
// hash index and row list are reused from the previous run. A key
// string, a group and a tag map per series visited cost ≈ 9 allocations
// per series; slices re-grown inside every run cost 57 more per Listing 1
// (99 against 42).
func TestListing1AllocationsDoNotScaleWithSeries(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// The aggregator pool keeps one cache per P and a collection empties
	// it; a run that misses it re-grows every slice. That is the pool
	// working, not a per-query cost, so the test keeps to one P (as
	// AllocsPerRun does) from the warm-up on, and no collection runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0))
	const nodes, podsPerNode = 20, 100
	for s := 0; s < 3; s++ {
		for n := 0; n < nodes; n++ {
			for p := 0; p < podsPerNode; p++ {
				db.WriteNow("sgx/epc", tsdb.Tags{
					"pod_name": fmt.Sprintf("pod-%02d-%03d", n, p),
					"nodename": fmt.Sprintf("node-%02d", n),
				}, float64(4096*(1+(p+s)%3)))
			}
		}
	}
	for _, tc := range []struct {
		name, query string
		first       float64
	}{
		{"listing1", listing1, podsPerNode * 3 * 4096},
		{"range", rangeQuery, 2 * 4096},
	} {
		q, err := Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun warms up with one run; a second lets both pooled
		// aggregators, which trade the outer and subquery roles from run
		// to run, reach their size.
		if _, err := Run(db, q); err != nil {
			t.Fatal(err)
		}
		var res Result
		got := testing.AllocsPerRun(10, func() {
			if res, err = Run(db, q); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Rows) != nodes || res.Rows[0].Value != tc.first {
			t.Fatalf("%s returned %d rows, first %+v", tc.name, len(res.Rows), res.Rows[0])
		}
		if limit := float64(2*len(res.Rows) + 4); got > limit {
			t.Fatalf("%s over %d series allocates %v times, want ≤ %v (2 per row + 4)", tc.name, nodes*podsPerNode, got, limit)
		}
		t.Logf("%s over %d series: %v allocations", tc.name, nodes*podsPerNode, got)
	}
}
