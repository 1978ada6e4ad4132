package sgxorch

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/experiments"
	"github.com/sgxorch/sgxorch/internal/monitor"
)

func TestNewClusterDefaultsToPaperTestbed(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := c.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("nodes = %d, want 5 (§VI-A testbed)", len(nodes))
	}
	sgxCount, masterCount := 0, 0
	for _, n := range nodes {
		if n.SGX {
			sgxCount++
			if n.EPCPages != 23936 {
				t.Fatalf("node %s EPC pages = %d, want 23936", n.Name, n.EPCPages)
			}
		}
		if n.Unschedulable {
			masterCount++
		}
	}
	if sgxCount != 2 || masterCount != 1 {
		t.Fatalf("sgx=%d master=%d", sgxCount, masterCount)
	}
}

// TestClusterWatchSubscribers: the watch stream has one subscriber per
// kubelet plus the reference model's audit and the scheduler's cache. The
// lifecycle tracker reads the audit's delivery, and the gang director
// reads the server's gang counts; neither subscribes.
func TestClusterWatchSubscribers(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := c.tb.Srv.WatchStats().Subscribers, len(c.Nodes())+2; got != want {
		t.Fatalf("watch subscribers = %d, want %d (a kubelet per node, the audit, the cache)", got, want)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: []NodeSpec{{}}}); err == nil {
		t.Fatal("unnamed node accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: []NodeSpec{
		{Name: "a", RAMBytes: GiB, CPUMillis: 1000},
		{Name: "a", RAMBytes: GiB, CPUMillis: 1000},
	}}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	for _, bad := range []NodeSpec{
		{Name: "b", RAMBytes: -64 * GiB, CPUMillis: 1000},
		{Name: "b", CPUMillis: 1000},
		{Name: "b", RAMBytes: GiB, CPUMillis: -1},
		{Name: "b", RAMBytes: GiB, CPUMillis: 1000, SGX: true, EPCSize: -MiB},
	} {
		if _, err := NewCluster(ClusterConfig{Nodes: []NodeSpec{{Name: "a", RAMBytes: GiB, CPUMillis: 1000}, bad}}); err == nil {
			t.Fatalf("node %+v accepted", bad)
		}
	}
}

func TestSubmitAndRunSGXJob(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.SubmitJob(JobSpec{
		Name:            "enclave-job",
		Duration:        time.Minute,
		EPCRequestBytes: 10 * MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(time.Hour) {
		t.Fatal("job did not finish")
	}
	st, err := c.JobStatus("enclave-job")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != "Succeeded" {
		t.Fatalf("phase = %s (%s)", st.Phase, st.Reason)
	}
	if !strings.HasPrefix(st.Node, "sgx-") {
		t.Fatalf("SGX job ran on %q", st.Node)
	}
	if !st.Started || !st.Finished {
		t.Fatalf("status flags: %+v", st)
	}
	if st.Turnaround < time.Minute {
		t.Fatalf("turnaround %v < duration", st.Turnaround)
	}
}

func TestStandardJobAvoidsSGXNodes(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:               "plain-job",
		Duration:           30 * time.Second,
		MemoryRequestBytes: 2 * GiB,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(time.Hour) {
		t.Fatal("job did not finish")
	}
	st, _ := c.JobStatus("plain-job")
	if !strings.HasPrefix(st.Node, "std-") {
		t.Fatalf("standard job placed on %q, want std-*", st.Node)
	}
}

func TestOverdeclaredUsageKilledByEnforcement(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Requests 4 KiB of EPC but allocates 40 MiB: the modified driver
	// denies enclave init (§V-D).
	if err := c.SubmitJob(JobSpec{
		Name:            "cheater",
		Duration:        time.Hour,
		EPCRequestBytes: 4 * KiB,
		EPCUsageBytes:   40 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(time.Minute)
	st, _ := c.JobStatus("cheater")
	if st.Phase != "Failed" {
		t.Fatalf("phase = %s, want Failed", st.Phase)
	}
	if !strings.Contains(st.Reason, "denied") {
		t.Fatalf("reason = %q", st.Reason)
	}
}

func TestEnforcementCanBeDisabled(t *testing.T) {
	c, err := NewCluster(ClusterConfig{DisableEnforcement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:            "cheater",
		Duration:        30 * time.Second,
		EPCRequestBytes: 4 * KiB,
		EPCUsageBytes:   40 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(time.Hour) {
		t.Fatal("job did not finish")
	}
	st, _ := c.JobStatus("cheater")
	if st.Phase != "Succeeded" {
		t.Fatalf("phase = %s (%s), want Succeeded without enforcement", st.Phase, st.Reason)
	}
}

func TestCustomTopologyAndPolicy(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Policy: PolicySpread,
		Nodes: []NodeSpec{
			{Name: "n1", RAMBytes: 4 * GiB, CPUMillis: 4000},
			{Name: "n2", RAMBytes: 4 * GiB, CPUMillis: 4000},
			{Name: "enclave", RAMBytes: 4 * GiB, CPUMillis: 4000, SGX: true, EPCSize: 64 * MiB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := c.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	for _, n := range nodes {
		if n.Name == "enclave" {
			want := int64(64 * 256 * 23936 / 32768)
			if n.EPCPages != want {
				t.Fatalf("64 MiB EPC pages = %d, want %d", n.EPCPages, want)
			}
		}
	}
	// Spread two jobs across the two standard nodes.
	for i, name := range []string{"a", "b"} {
		if err := c.SubmitJob(JobSpec{
			Name:               name,
			Duration:           time.Minute,
			MemoryRequestBytes: GiB,
		}); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	c.AdvanceTime(10 * time.Second)
	stA, _ := c.JobStatus("a")
	stB, _ := c.JobStatus("b")
	if stA.Node == stB.Node {
		t.Fatalf("spread placed both jobs on %q", stA.Node)
	}
}

func TestSubmitJobValidation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{}); err == nil {
		t.Fatal("nameless job accepted")
	}
	if err := c.SubmitJob(JobSpec{Name: "x", Duration: -time.Second}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if err := c.SubmitJob(JobSpec{Name: "dup", Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitJob(JobSpec{Name: "dup", Duration: time.Second}); err == nil {
		t.Fatal("duplicate job accepted")
	}
	for _, bad := range []JobSpec{
		{Name: "neg", MemoryRequestBytes: -1},
		{Name: "neg", MemoryUsageBytes: -7},
		{Name: "neg", EPCRequestBytes: -1},
		{Name: "neg", EPCRequestBytes: MiB, EPCUsageBytes: -1},
		{Name: "neg", EPCRequestBytes: MiB, EPCLimitBytes: -1},
		{Name: "dyn", DynamicEPC: true, EPCUsageBytes: 60 * MiB},
		{Name: "epc", EPCUsageBytes: MiB},
		{Name: "epc", EPCLimitBytes: MiB},
	} {
		if err := c.SubmitJob(bad); err == nil {
			t.Fatalf("job %+v accepted", bad)
		}
	}
}

func TestSchedulerStatsExposed(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{Name: "j", Duration: time.Second, MemoryRequestBytes: MiB}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(time.Minute)
	st := c.SchedulerStats()
	if st.Passes == 0 || st.Bound != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.Close()
	c.Close() // idempotent
}

func TestReplayBorgTraceFacade(t *testing.T) {
	res, err := ReplayBorgTrace(ReplayOptions{Seed: 1, SGXRatio: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Outcomes) != 663 {
		t.Fatalf("completed=%v outcomes=%d", res.Completed, len(res.Outcomes))
	}
	if _, err := ReplayBorgTrace(ReplayOptions{Policy: "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := ReplayBorgTrace(ReplayOptions{EPCSize: -5 * MiB}); err == nil {
		t.Fatal("negative EPCSize accepted")
	}
}

// The two public entry points are the same machine. Both stand on one
// experiments.Testbed assembly and turn a job into a pod by one
// conversion (experiments.Job), and NewCluster claims that jobs which
// declare no class or gang schedule as the replay's do. So the §VI-B
// slice replayed on the testbed and the same jobs, written out here as
// JobSpecs, submitted to a Cluster at their trace offsets must agree, job
// for job, on phase, waiting time and turnaround, and on the requests
// and limits each side stored. The last catches a scaling the replay and
// these JobSpecs disagree on even where it moves no placement: the
// 16 MiB beside an SGX job's enclave never decides a fit on the 8 GiB
// SGX nodes. The replay's pods are read from a replay on
// ReplayBorgTrace's own testbed, which must return what ReplayBorgTrace
// does. The seed-1 replay is also a referee of the reference model's
// audit: an event it refused fails ReplayBorgTrace.
func TestReplayAndClusterAgreeJobForJob(t *testing.T) {
	trace := GenerateBorgEvalSlice(1)
	res, err := ReplayBorgTrace(ReplayOptions{Trace: trace, Seed: 1, SGXRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := experiments.NewTestbed(experiments.Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := replay.Replay(experiments.ReplayConfig{Trace: trace, SGXRatio: 0.5, Seed: 1}); err != nil || !reflect.DeepEqual(again, res) {
		t.Fatalf("the replay on ReplayBorgTrace's testbed (%v) differs from ReplayBorgTrace", err)
	}
	c, err := NewCluster(ClusterConfig{DisableTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := c.Now()
	for i, job := range trace.Jobs {
		c.AdvanceTime(job.Submit - c.Now().Sub(start))
		spec := JobSpec{
			Name:               res.Outcomes[i].Name,
			Duration:           job.Duration,
			MemoryRequestBytes: borg.StandardMemBytes(job.AssignedMemFrac),
			MemoryUsageBytes:   borg.StandardMemBytes(job.MaxMemFrac),
		}
		if res.Outcomes[i].SGX {
			// What the replay's SGX pods carry: 16 MiB of ordinary memory
			// beside the enclave.
			spec.MemoryRequestBytes, spec.MemoryUsageBytes = 16*MiB, 0
			spec.EPCRequestBytes = borg.SGXMemBytes(job.AssignedMemFrac)
			spec.EPCUsageBytes = borg.SGXMemBytes(job.MaxMemFrac)
		}
		if err := c.SubmitJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	if drained := c.WaitAll(24 * time.Hour); !res.Completed || !drained {
		t.Fatalf("replay completed = %v, cluster drained = %v", res.Completed, drained)
	}
	sameResources := func(a, b api.Container) bool { return a.Resources == b.Resources }
	differ := 0
	for _, o := range res.Outcomes {
		st, err := c.JobStatus(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		submitted, err := c.tb.Srv.GetPod(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := replay.Srv.GetPod(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase != string(o.Phase) || st.Started != o.Started || st.Waiting != o.Waiting || st.Turnaround != o.Turnaround ||
			!slices.EqualFunc(submitted.Spec.Containers, replayed.Spec.Containers, sameResources) {
			if differ++; differ <= 5 {
				t.Errorf("%s: cluster %s wait %v turnaround %v stored %+v, replay %s wait %v turnaround %v stored %+v",
					o.Name, st.Phase, st.Waiting, st.Turnaround, submitted.Spec.Containers,
					o.Phase, o.Waiting, o.Turnaround, replayed.Spec.Containers)
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d jobs differ between ReplayBorgTrace and NewCluster", differ, len(res.Outcomes))
	}
}

func TestGenerateBorgTraces(t *testing.T) {
	slice := GenerateBorgEvalSlice(3)
	if slice.Len() != 663 || slice.OverAllocatorCount() != 44 {
		t.Fatalf("eval slice: %d jobs, %d over-allocators", slice.Len(), slice.OverAllocatorCount())
	}
	day := GenerateBorgDay(3, 1000)
	if day.Len() != 1000 {
		t.Fatalf("day trace: %d jobs", day.Len())
	}
}

func TestReproduceFigureFast(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6"} {
		fig, err := ReproduceFigure(id, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id || len(fig.Series) == 0 {
			t.Fatalf("%s: %+v", id, fig)
		}
	}
	if _, err := ReproduceFigure("fig99", 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if got := len(FigureIDs()); got != 9 {
		t.Fatalf("FigureIDs = %d", got)
	}
}

func TestSGX2DynamicJobThroughFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: []NodeSpec{
			{Name: "sgx2-1", RAMBytes: 8 * GiB, CPUMillis: 8000, SGX2: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Baseline 10 MiB, burst to 30 MiB mid-run (§VI-G).
	if err := c.SubmitJob(JobSpec{
		Name:            "bursty-enclave",
		Duration:        90 * time.Second,
		EPCRequestBytes: 10 * MiB,
		EPCUsageBytes:   30 * MiB,
		DynamicEPC:      true,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(time.Hour) {
		t.Fatal("job did not finish")
	}
	st, _ := c.JobStatus("bursty-enclave")
	if st.Phase != "Succeeded" {
		t.Fatalf("phase = %s (%s)", st.Phase, st.Reason)
	}
}

func TestDynamicJobOnSGX1NodeFails(t *testing.T) {
	c, err := NewCluster(ClusterConfig{}) // SGX 1 testbed
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:            "bursty-enclave",
		Duration:        time.Minute,
		EPCRequestBytes: 10 * MiB,
		EPCUsageBytes:   30 * MiB,
		DynamicEPC:      true,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(time.Minute)
	st, _ := c.JobStatus("bursty-enclave")
	if st.Phase != "Failed" {
		t.Fatalf("phase = %s, want Failed on SGX1 hardware", st.Phase)
	}
}

func TestDynamicBurstBeyondLimitKilled(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: []NodeSpec{{Name: "sgx2-1", RAMBytes: 8 * GiB, CPUMillis: 8000, SGX2: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Explicit limit below the burst peak: the EAUG is denied (§VI-G port
	// of the limit enforcement).
	if err := c.SubmitJob(JobSpec{
		Name:            "greedy-burst",
		Duration:        90 * time.Second,
		EPCRequestBytes: 10 * MiB,
		EPCUsageBytes:   60 * MiB,
		EPCLimitBytes:   20 * MiB,
		DynamicEPC:      true,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(5 * time.Minute)
	st, _ := c.JobStatus("greedy-burst")
	if st.Phase != "Failed" {
		t.Fatalf("phase = %s, want Failed (burst denied)", st.Phase)
	}
}

func TestEvictJobThroughFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:            "victim",
		Duration:        time.Hour,
		EPCRequestBytes: 10 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(30 * time.Second)
	if err := c.EvictJob("victim", "spot preemption"); err != nil {
		t.Fatal(err)
	}
	st, _ := c.JobStatus("victim")
	if st.Phase != "Failed" || !strings.Contains(st.Reason, "Evicted") {
		t.Fatalf("status = %+v", st)
	}
	// EPC returned to the node.
	for _, n := range c.Nodes() {
		if n.SGX && n.EPCPagesFree != n.EPCPages {
			t.Fatalf("node %s leaked pages: %d free of %d", n.Name, n.EPCPagesFree, n.EPCPages)
		}
	}
	if err := c.EvictJob("ghost", ""); err == nil {
		t.Fatal("evicting unknown job succeeded")
	}
}

func TestDrainNodeThroughFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:            "sgx-work",
		Duration:        time.Hour,
		EPCRequestBytes: 10 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(30 * time.Second)
	st, _ := c.JobStatus("sgx-work")
	drained := st.Node
	if err := c.DrainNode(drained); err != nil {
		t.Fatal(err)
	}
	st, _ = c.JobStatus("sgx-work")
	if st.Phase != "Failed" {
		t.Fatalf("job on drained node = %s", st.Phase)
	}
	// New SGX work lands on the surviving SGX node.
	if err := c.SubmitJob(JobSpec{
		Name:            "after-drain",
		Duration:        time.Minute,
		EPCRequestBytes: 10 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(time.Minute)
	st, _ = c.JobStatus("after-drain")
	if st.Node == drained || st.Node == "" {
		t.Fatalf("after-drain on %q (drained %q)", st.Node, drained)
	}
	if err := c.DrainNode("ghost"); err == nil {
		t.Fatal("draining unknown node succeeded")
	}
}

// TestDrainNodeFailsJobInAdmission: a job bound just before its node is
// drained, still inside the kubelet's admission latency, fails instead of
// starting on the NotReady node, and the drained node keeps none of its
// EPC page items.
func TestDrainNodeFailsJobInAdmission(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitJob(JobSpec{
		Name:            "sgx-work",
		Duration:        time.Hour,
		EPCRequestBytes: 10 * MiB,
	}); err != nil {
		t.Fatal(err)
	}
	// The first pass, at 5 s, binds the job; the kubelet admits it
	// kubelet.DefaultAdmissionLatency (500 ms) later.
	c.AdvanceTime(5200 * time.Millisecond)
	st, _ := c.JobStatus("sgx-work")
	if st.Node == "" || st.Started {
		t.Fatalf("job at 5.2 s: node %q, started %v; want bound and not yet started", st.Node, st.Started)
	}
	drained := st.Node
	if err := c.DrainNode(drained); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(time.Minute)
	if st, _ = c.JobStatus("sgx-work"); st.Phase != "Failed" || !strings.Contains(st.Reason, "NodeDrained") {
		t.Fatalf("job bound to the drained node is %s (%s), want Failed for the drain", st.Phase, st.Reason)
	}
	for _, n := range c.Nodes() {
		if n.Name == drained && n.EPCPagesFree != n.EPCPages {
			t.Fatalf("drained node %s: %d of %d EPC page items free", n.Name, n.EPCPagesFree, n.EPCPages)
		}
	}
}

// TestGangJobsScheduleAllOrNothing drives the gang lifecycle through
// the public facade: four co-members commit together and finish, and
// the director reports the commit.
func TestGangJobsScheduleAllOrNothing(t *testing.T) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const members = 4
	for i := 0; i < members; i++ {
		if err := c.SubmitJob(JobSpec{
			Name:               "rank-" + string(rune('a'+i)),
			Gang:               "train-1",
			GangMinMember:      members,
			Duration:           time.Minute,
			MemoryRequestBytes: GiB,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitAll(time.Hour) {
		t.Fatal("gang did not finish")
	}
	var waits []time.Duration
	for i := 0; i < members; i++ {
		st, err := c.JobStatus("rank-" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase != "Succeeded" {
			t.Fatalf("member %d phase = %s (%s)", i, st.Phase, st.Reason)
		}
		waits = append(waits, st.Waiting)
	}
	// Atomic commit: all members were submitted at the same instant, so
	// equal waiting times mean the gang bound in one commit burst, not
	// trickled over passes.
	for _, w := range waits[1:] {
		if w != waits[0] {
			t.Fatalf("gang bound across instants: waits = %v", waits)
		}
	}
	gs := c.GangStats()
	if gs.Commits != 1 {
		t.Fatalf("gang commits = %d, want 1", gs.Commits)
	}
	if gs.Timeouts != 0 {
		t.Fatalf("gang timeouts = %d, want 0", gs.Timeouts)
	}
}

// TestClusterListing1MatchesWindowPeak runs the paper's Listing 1 and its
// "memory/usage" twin through Cluster.Query over what the EPC probes and
// Heapster wrote, and requires each node's row to equal the per-node sum
// of monitor.WindowPeak: the tsdb scan path, independent of the InfluxQL
// executor.
func TestClusterListing1MatchesWindowPeak(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Policy: PolicySpread}) // two rows per measurement
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range int64(6) {
		jobs := []JobSpec{
			{Name: fmt.Sprintf("sgx-%d", i), Duration: 10 * time.Minute, MemoryRequestBytes: (i + 1) * 64 * MiB, EPCRequestBytes: (i + 1) * 4 * MiB},
			{Name: fmt.Sprintf("std-%d", i), Duration: 10 * time.Minute, MemoryRequestBytes: (i + 1) * GiB},
		}
		for _, job := range jobs {
			if err := c.SubmitJob(job); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.AdvanceTime(time.Minute) // several scrapes past the binds
	const sub = `(SELECT MAX(value) AS %[1]s FROM %[2]q
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)`
	for _, tc := range []struct{ field, measurement string }{
		{"epc", monitor.MeasurementEPC},
		{"mem", monitor.MeasurementMemory},
	} {
		query := fmt.Sprintf("SELECT SUM(%[1]s) AS %[1]s FROM\n"+sub+"\nGROUP BY nodename", tc.field, tc.measurement)
		res, err := c.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		want, pods := map[string]float64{}, map[string]int{}
		for pn, peak := range monitor.WindowPeak(c.tb.DB, tc.measurement, 25*time.Second) {
			want[pn.Node] += peak
			pods[pn.Node]++
		}
		if got := res.ValueByTag(monitor.TagNode); len(res.Rows) != len(want) || !maps.Equal(got, want) {
			t.Fatalf("%s per node: Listing 1 %v, WindowPeak %v", tc.measurement, got, want)
		}
		if len(pods) < 2 || slices.Max(slices.Collect(maps.Values(pods))) < 2 {
			t.Fatalf("%s: pods per node %v; want two nodes, one with two pods", tc.measurement, pods)
		}
		t.Logf("%s: %v over %v", tc.measurement, want, pods)
		for node := range want {
			if tc.measurement == monitor.MeasurementEPC && !strings.HasPrefix(node, "sgx-") {
				t.Fatalf("EPC usage reported on standard node %q", node)
			}
		}
	}
}
