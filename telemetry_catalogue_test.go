package sgxorch

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// catalogueGolden pins the series the registry exports, in export order.
const catalogueGolden = "testdata/telemetry_catalogue.golden"

// TestTelemetryCatalogue pins the exported series catalogue of a drained
// Cluster: every series the Prometheus exposition carries, in the order
// it carries them, as its TYPE kind, name and label pair. The workload
// mixes every class, preempts and commits a gang, so every component's
// families register. No value is pinned: pass timings are wall-clock.
// After an intended change, rewrite the golden with -update and commit
// its diff with the change.
func TestTelemetryCatalogue(t *testing.T) {
	c, err := NewCluster(ClusterConfig{SchedulerInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	submit := func(spec JobSpec) {
		t.Helper()
		if err := c.SubmitJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Four hour-long hogs commit most of both SGX nodes' EPC; an urgent
	// enclave job then preempts one.
	for _, name := range []string{"hog-a", "hog-b", "hog-c", "hog-d"} {
		submit(JobSpec{Name: name, Duration: time.Hour, EPCRequestBytes: 43 * MiB})
	}
	c.AdvanceTime(15 * time.Second)
	submit(JobSpec{Name: "urgent", Duration: 2 * time.Minute, EPCRequestBytes: 24 * MiB, Priority: 10})
	for _, name := range []string{"gang-0", "gang-1"} {
		submit(JobSpec{
			Name: name, Duration: time.Minute, MemoryRequestBytes: GiB,
			Gang: "g", GangMinMember: 2, Class: ClassBatch,
		})
	}
	rng := rand.New(rand.NewSource(1))
	classes := []string{"", ClassLatencySensitive, ClassBatch, ClassBestEffort}
	for i := 0; i < 24; i++ {
		submit(JobSpec{
			Name:               fmt.Sprintf("job-%d", i),
			Duration:           time.Duration(rng.Intn(40)+5) * time.Second,
			Priority:           int32(rng.Intn(3) * 10),
			MemoryRequestBytes: int64(rng.Intn(12)+1) * GiB,
			Class:              classes[rng.Intn(len(classes))],
		})
	}
	if !c.WaitAll(4 * time.Hour) {
		t.Fatal("workload did not drain")
	}
	if ss, gs := c.SchedulerStats(), c.GangStats(); ss.Preemptions == 0 || gs.Commits == 0 {
		t.Fatalf("workload too gentle: preemptions=%d gang commits=%d", ss.Preemptions, gs.Commits)
	}

	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := exportedCatalogue(t, sb.String())
	if *update {
		if err := os.WriteFile(catalogueGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(catalogueGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported series catalogue moved (-update rewrites %s)\n got:\n%s\nwant:\n%s", catalogueGolden, got, want)
	}
}

// exportedCatalogue reduces a Prometheus exposition to one line per
// series — "<kind> <name> [<label pair>]" — in exposition order. A
// histogram series is read off its _count sample, which carries exactly
// the series' own label pair.
func exportedCatalogue(t testing.TB, exposition string) string {
	t.Helper()
	var out strings.Builder
	family, kind := "", ""
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
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
		if name != family {
			t.Fatalf("sample %q outside its family %q", line, family)
		}
		fmt.Fprintf(&out, "%s %s", kind, name)
		if labels != "" {
			fmt.Fprintf(&out, " %s", strings.TrimSuffix(labels, "}"))
		}
		out.WriteByte('\n')
	}
	return out.String()
}
