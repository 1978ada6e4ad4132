package monitor

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// TestSteadyStateWriteAllocatesNothing pins the write path: a sample for
// an existing series — key rendered and looked up, point appended and
// pruned, WindowMax's deque and expiry heap updated, a second observer
// called — allocates nothing once the slices have grown. A key string, a
// tag clone, an observer-list copy or a boxed heap entry per write would
// each show as ≥ 1.
func TestSteadyStateWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	changes, writes := 0, 0
	w.SetOnChange(func(string, string, string, float64, bool) { changes++ })
	db.OnWrite(func(string, tsdb.Tags, float64, time.Time) { writes++ })

	tags := wmTags("p", "n")
	v := 0.0
	write := func() {
		clk.Advance(10 * time.Second)
		v++ // a new peak every time: the front changes and an expiry entry is pushed
		db.WriteNow(MeasurementEPC, tags, v)
	}
	// Grow the point slice to its retention size and the heap past what
	// the measured writes will push, then drain the stale entries.
	for i := 0; i < 512; i++ {
		write()
	}
	w.Refresh()
	if got := testing.AllocsPerRun(200, write); got != 0 {
		t.Fatalf("a steady-state write allocates %v times, want 0", got)
	}
	if changes != writes || writes < 700 {
		t.Fatalf("%d writes, %d changes: the measured writes did not all reach both observers", writes, changes)
	}
}

// TestWarmRefreshAllocatesNothing: a Refresh that evicts expired peaks
// and announces the drops collects them into the buffer the aggregator
// keeps, so once the buffers have grown it allocates nothing — nor do the
// writes between Refreshes. A fresh change slice per call would show as 1.
func TestWarmRefreshAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	refreshing, fromRefresh := false, 0
	w.SetOnChange(func(string, string, string, float64, bool) {
		if refreshing {
			fromRefresh++
		}
	})
	tags := make([]tsdb.Tags, 16)
	for i := range tags {
		tags[i] = wmTags(fmt.Sprintf("p%02d", i), "n")
	}
	step := 0
	round := func() {
		// A falling sawtooth, 5 4 3 2 1 5 …: the peak keeps expiring
		// above smaller samples, and the Refresh comes before the round's
		// writes, so it is the Refresh that finds and announces the drops.
		clk.Advance(10 * time.Second)
		refreshing = true
		w.Refresh()
		refreshing = false
		for _, tg := range tags {
			db.WriteNow(MeasurementEPC, tg, float64(5-step%5))
		}
		step++
	}
	for i := 0; i < 64; i++ {
		round()
	}
	fromRefresh = 0
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("a warm write-and-Refresh round allocates %v times, want 0", got)
	}
	if fromRefresh < 100 {
		t.Fatalf("Refresh announced %d drops over the measured rounds: nothing expired", fromRefresh)
	}
}

// TestSteadySeriesAllocatesOnlyItsRecord: a new series whose deque holds
// at most two entries — the peak and the latest sample, a pod whose usage
// settles below its start-up peak — keeps them inside its record, so its
// whole life allocates that record alone, and the record is carved from a
// chunk of 64: over a thousand series that rounds to nothing. A record
// allocated on its own would show as 1, a deque grown from nil as two
// more.
func TestSteadySeriesAllocatesOnlyItsRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0))
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	const runs = 1000
	tags := make([]tsdb.Tags, runs+1)
	for i := range tags {
		tags[i] = wmTags(fmt.Sprintf("pod-%04d", i), "n")
	}
	next := 0
	life := func() {
		tg := tags[next]
		next++
		now := clk.Now()
		w.onWrite(MeasurementEPC, tg, 9, now) // the start-up peak
		for k := 1; k <= 4; k++ {
			w.onWrite(MeasurementEPC, tg, 7, now.Add(time.Duration(k)*time.Second))
		}
	}
	// The map and the expiry heap grow by doubling and the records come
	// 64 to a chunk; over a thousand series that rounds away.
	if got := testing.AllocsPerRun(runs, life); got != 0 {
		t.Fatalf("a steady series allocates %v objects, want 0 (its share of a chunk of records)", got)
	}
	if got := w.SeriesCount(); got != runs+1 {
		t.Fatalf("%d series, want %d", got, runs+1)
	}
}

// TestScrapeAllocationsDoNotGrowWithPods: one Heapster + probe scrape
// round over a stable pod set costs the same handful of allocations at 8
// pods as at 64 — the collectors' tag literal stays on the stack, the
// database resolves every series in place — so any per-sample allocation
// that comes back multiplies the larger count and trips this.
func TestScrapeAllocationsDoNotGrowWithPods(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	perRound := func(pods int) float64 {
		clk := clock.NewSim()
		db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
		w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC, MeasurementMemory)
		defer w.Close()
		w.SetOnChange(func(string, string, string, float64, bool) {})
		src := &fakeSource{node: "n1"}
		for i := 0; i < pods; i++ {
			src.stats = append(src.stats, kubelet.PodStat{
				PodName: fmt.Sprintf("pod-%03d", i), MemoryBytes: int64(1000 + i), EPCBytes: int64(10 + i),
			})
		}
		h := NewHeapster(clk, db, 0)
		h.AddSource(src)
		p := NewProbe(clk, db, src, 0)
		round := func() {
			clk.Advance(DefaultScrapeInterval)
			h.Scrape()
			p.Scrape()
			w.Refresh() // the scheduler's cadence; drains the stale expiry entries
		}
		for i := 0; i < 32; i++ { // point slices reach their retention size
			round()
		}
		return testing.AllocsPerRun(50, round)
	}
	few, many := perRound(8), perRound(64)
	if few != many || few > 4 {
		t.Fatalf("a scrape round allocates %v times at 8 pods and %v at 64, want the same small constant", few, many)
	}
}

// TestScrapeOverExistingSeriesAllocatesNothing pins the whole node-stats
// path on a real kubelet: Heapster and the SGX probe each ask the kubelet
// for its pods' stats (read from the machine's and the SGX package's
// per-cgroup totals into the kubelet's own buffer) and write one point per
// pod into series that already exist. Once the buffers and point slices
// have grown, a scrape allocates nothing; a per-call stats slice, a copy of
// Heapster's source list or a per-pod scan that allocates would each show.
func TestScrapeOverExistingSeriesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	kl := kubelet.New(clk, srv, machine.New("sgx-1", 8*resource.GiB, 8000, machine.WithSGX(sgx.DefaultGeometry())))
	if err := kl.Start(); err != nil {
		t.Fatal(err)
	}
	defer kl.Stop()
	const pods = 8
	for i := 0; i < pods; i++ {
		name := fmt.Sprintf("job-%d", i)
		pod := &api.Pod{Name: name, Spec: api.PodSpec{Containers: []api.Container{{
			Name:      "main",
			Resources: api.Requirements{Requests: resource.List{resource.Memory: 64 * resource.MiB, resource.EPCPages: 256}},
			Workload:  api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: time.Hour, AllocBytes: resource.MiB},
		}}}}
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(name, "sgx-1"); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(5 * time.Second) // admission and enclave startup
	if st := kl.PodStats(); len(st) != pods || st[0].EPCBytes != resource.MiB {
		t.Fatalf("stats = %+v, want %d running pods with 1 MiB of EPC each", st, pods)
	}

	db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
	h := NewHeapster(clk, db, 0)
	h.AddSource(kl)
	p := NewProbe(clk, db, kl, 0)
	round := func() {
		clk.Advance(DefaultScrapeInterval)
		h.Scrape()
		p.Scrape()
	}
	for i := 0; i < 16; i++ { // point slices reach their retention size
		round()
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Fatalf("a Heapster + probe scrape over existing series allocates %v times, want 0", got)
	}
	if got := db.SeriesCount(); got != 2*pods {
		t.Fatalf("%d series, want %d", got, 2*pods)
	}
}
