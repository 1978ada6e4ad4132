package influxql

import (
	"fmt"
	"testing"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// TestListing1AllocationsDoNotScaleWithSeries pins the read path: Listing
// 1 over 2 000 series allocates a few dozen times — the group slice, the
// value slab and the hash index growing by doubling, the row order, a tag
// map per returned row — where a key string, a group and a tag map per
// series visited cost ≈ 9 allocations per series.
func TestListing1AllocationsDoNotScaleWithSeries(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
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
	q, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	got := testing.AllocsPerRun(10, func() {
		if res, err = Run(db, q); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Rows) != nodes || res.Rows[0].Value != podsPerNode*3*4096 {
		t.Fatalf("Listing 1 returned %d rows, first %+v", len(res.Rows), res.Rows[0])
	}
	if got > 128 {
		t.Fatalf("Listing 1 over %d series allocates %v times, want ≤ 128", nodes*podsPerNode, got)
	}
	t.Logf("Listing 1 over %d series: %v allocations", nodes*podsPerNode, got)
}
