package experiments

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/stack"
)

// TestAuditCountsPlantedFault: with the server's admission switched off,
// a pod bound by hand past sgx-1's EPC is an event the guarded reference
// model refuses. Every harness counts its violations through this one
// audit, so a fault none of them can see is a fault this test misses.
func TestAuditCountsPlantedFault(t *testing.T) {
	cfg := Paper(0)
	cfg.Admission = apiserver.AdmitNone
	cfg.audit = newAudit(apiserver.AdmitGuarded)
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	pages := resource.PagesForBytes(sgx.GeometryForSize(stack.DefaultEPC).UsableBytes()) + 1
	hog := &api.Pod{
		Name: "hog",
		Spec: api.PodSpec{
			SchedulerName: "nobody",
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.EPCPages: pages}},
				Workload:  api.WorkloadSpec{Kind: api.WorkloadSleep, Duration: time.Minute},
			}},
		},
	}
	if err := tb.Srv.CreatePod(hog); err != nil {
		t.Fatal(err)
	}
	if err := tb.Srv.Bind("hog", "sgx-1"); err != nil {
		t.Fatalf("the unguarded server refused the planted bind: %v", err)
	}
	if cfg.audit.violations < 1 || cfg.audit.err() == nil {
		t.Fatalf("the audit counted %d violations in %d events, want the planted bind refused",
			cfg.audit.violations, cfg.audit.events)
	}
}

// TestAuditSeesWholeStream: an audited replay's audit is sent every event
// the server published, from the first node's registration to the
// kubelets' NotReady updates at Close.
func TestAuditSeesWholeStream(t *testing.T) {
	cfg := Paper(0)
	cfg.audit = newAudit(cfg.Admission)
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := &borg.Trace{Jobs: evalTrace(1).Jobs[:20], Horizon: time.Hour}
	if _, err := tb.Replay(ReplayConfig{Trace: trace, SGXRatio: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	published := tb.Srv.WatchStats().Published
	if a := cfg.audit; int64(a.events) != published || a.violations != 0 {
		t.Fatalf("audit saw %d events with %d violations; the server published %d",
			a.events, a.violations, published)
	}
}
