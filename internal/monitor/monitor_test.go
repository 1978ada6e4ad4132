package monitor

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/influxql"
	"github.com/sgxorch/sgxorch/internal/kubelet"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// fakeSource is a deterministic StatsSource.
type fakeSource struct {
	node  string
	stats []kubelet.PodStat
}

func (f *fakeSource) NodeName() string            { return f.node }
func (f *fakeSource) PodStats() []kubelet.PodStat { return f.stats }

func TestHeapsterScrape(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	h := NewHeapster(clk, db, 0)
	h.AddSource(&fakeSource{node: "n1", stats: []kubelet.PodStat{
		{PodName: "a", MemoryBytes: 100},
		{PodName: "b", MemoryBytes: 200},
	}})
	h.AddSource(&fakeSource{node: "n2", stats: []kubelet.PodStat{
		{PodName: "c", MemoryBytes: 300},
	}})
	h.Scrape()
	res, err := influxql.Execute(db,
		`SELECT SUM(mem) AS mem FROM (SELECT MAX(value) AS mem FROM "memory/usage" WHERE time >= now() - 25s GROUP BY pod_name, nodename) GROUP BY nodename`)
	if err != nil {
		t.Fatal(err)
	}
	byNode := res.ValueByTag(TagNode)
	if byNode["n1"] != 300 || byNode["n2"] != 300 {
		t.Fatalf("per-node memory = %v", byNode)
	}
}

func TestHeapsterPeriodic(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	h := NewHeapster(clk, db, 0)
	h.AddSource(&fakeSource{node: "n1", stats: []kubelet.PodStat{{PodName: "a", MemoryBytes: 1}}})
	stop := clock.Periodic(clk, 10*time.Second, h.Scrape)
	clk.Advance(35 * time.Second)
	series := db.Series(MeasurementMemory)
	if len(series) != 1 || len(series[0].Points) != 3 {
		t.Fatalf("series = %+v", series)
	}
	stop()
	clk.Advance(time.Minute)
	series = db.Series(MeasurementMemory)
	if len(series[0].Points) != 3 {
		t.Fatal("heapster kept scraping after Stop")
	}
}

func TestProbeWritesEPCBytes(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	p := NewProbe(clk, db, &fakeSource{node: "sgx-1", stats: []kubelet.PodStat{
		{PodName: "job-1", EPCBytes: 10 * resource.MiB},
		{PodName: "idle", EPCBytes: 0},
	}}, 0)
	p.Scrape()

	// Listing 1 must see the non-zero pod and filter the idle one.
	res, err := influxql.Execute(db,
		`SELECT SUM(epc) AS epc FROM (SELECT MAX(value) AS epc FROM "sgx/epc" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename) GROUP BY nodename`)
	if err != nil {
		t.Fatal(err)
	}
	byNode := res.ValueByTag(TagNode)
	if got := byNode["sgx-1"]; got != float64(10*resource.MiB) {
		t.Fatalf("sgx-1 EPC = %v, want %d", got, 10*resource.MiB)
	}
}

func TestDeployProbesOnlyOnSGXNodes(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	db := tsdb.New(clk)

	sgxMach := machine.New("sgx-1", 8*resource.GiB, 8000, machine.WithSGX(sgx.DefaultGeometry()))
	stdMach := machine.New("std-1", 64*resource.GiB, 8000)
	kls := []*kubelet.Kubelet{
		kubelet.New(clk, srv, sgxMach),
		kubelet.New(clk, srv, stdMach),
	}
	for _, kl := range kls {
		if err := kl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// "The probe is deployed on all SGX-enabled nodes using the DaemonSet
	// component" (§V-C) — exactly one here.
	if got := len(NewProbes(db, kls)); got != 1 {
		t.Fatalf("probes deployed = %d, want 1", got)
	}
}

func TestWindowPeakMatchesListing1Inner(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	p := NewProbe(clk, db, &fakeSource{node: "sgx-1", stats: []kubelet.PodStat{
		{PodName: "job-1", EPCBytes: 4 * resource.MiB},
		{PodName: "idle", EPCBytes: 0},
	}}, 0)
	p.Scrape()
	clk.Advance(10 * time.Second)
	p.Scrape()

	// A stale peak outside the window must not surface.
	db.Write(MeasurementEPC, tsdb.Tags{TagPod: "job-1", TagNode: "sgx-1"},
		float64(100*resource.MiB), clk.Now().Add(-time.Minute))

	peaks := WindowPeak(db, MeasurementEPC, 25*time.Second)
	if got := peaks[PodNode{Pod: "job-1", Node: "sgx-1"}]; got != float64(4*resource.MiB) {
		t.Fatalf("job-1 peak = %v, want %d", got, 4*resource.MiB)
	}
	// Zero-valued series are filtered like Listing 1's value <> 0.
	if _, ok := peaks[PodNode{Pod: "idle", Node: "sgx-1"}]; ok {
		t.Fatal("idle (all-zero) series surfaced a peak")
	}
	if len(peaks) != 1 {
		t.Fatalf("peaks = %v, want only job-1", peaks)
	}
}
