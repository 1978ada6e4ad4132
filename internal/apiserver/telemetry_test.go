package apiserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

func telemetryNode(name string) *api.Node {
	alloc := resource.List{resource.Memory: 16 * resource.GiB, resource.CPU: 8000}
	return &api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}
}

func telemetryTestPod(name string, class api.WorkloadClass, prio int32, memBytes int64) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			Class:    class,
			Priority: prio,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: memBytes}},
			}},
		},
	}
}

func TestServerTelemetryBindLatencyAndRejections(t *testing.T) {
	reg := telemetry.New()
	s := New(clock.NewSim(), WithTelemetry(reg), WithAdmission(AdmitStrict))
	defer s.Close()
	if err := s.RegisterNode(telemetryNode("n1")); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(telemetryTestPod("ok", api.ClassBatch, 0, resource.GiB)); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("ok", "n1"); err != nil {
		t.Fatal(err)
	}
	lat := reg.Histogram("apiserver_bind_latency_seconds", nil)
	if lat.Count() != 1 {
		t.Fatalf("bind latency count = %d, want 1 (successful bind)", lat.Count())
	}

	// Rejection with a known pod: counted under its class.
	if err := s.CreatePod(telemetryTestPod("nope", api.ClassBatch, 0, resource.GiB)); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("nope", "ghost-node"); err == nil {
		t.Fatal("bind to unknown node must fail")
	}
	// Rejection without a pod: counted as unknown.
	if err := s.Bind("ghost-pod", "n1"); err == nil {
		t.Fatal("bind of unknown pod must fail")
	}
	// Rejection by capacity: the pod fits the node alone, not beside
	// the bound one.
	if err := s.CreatePod(telemetryTestPod("full", api.ClassBatch, 0, 16*resource.GiB)); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("full", "n1"); !errors.Is(err, ErrOutdated) {
		t.Fatalf("bind beyond the node's headroom: err = %v, want ErrOutdated", err)
	}
	rej := reg.CounterVec("apiserver_bind_rejections_total", "class")
	if got := rej.With("batch").Value(); got != 2 {
		t.Fatalf("rejections{batch} = %d, want 2", got)
	}
	if got := rej.With("unknown").Value(); got != 1 {
		t.Fatalf("rejections{unknown} = %d, want 1", got)
	}
	// Every Bind outcome is a latency sample: the success and the three
	// rejections.
	if lat.Count() != 4 {
		t.Fatalf("bind latency count = %d, want 4 (all attempts observed)", lat.Count())
	}
	bs := s.BindStats()
	if want := (BindStats{Attempts: 4, Bound: 1, RejectedPodState: 1, RejectedNodeState: 1, RejectedCapacity: 1}); bs != want {
		t.Fatalf("BindStats = %+v, want %+v", bs, want)
	}
	// The bind gauges carry the other BindStats fields, one series per
	// field; Attempts is the latency histogram's count, checked above.
	reg.Collect()
	for name, want := range map[string]int64{
		"apiserver_bind_bound":               bs.Bound,
		"apiserver_bind_rejected_pod_state":  bs.RejectedPodState,
		"apiserver_bind_rejected_node_state": bs.RejectedNodeState,
		"apiserver_bind_rejected_capacity":   bs.RejectedCapacity,
	} {
		if got := reg.Gauge(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, BindStats reads %d", name, got, want)
		}
	}
}

// TestServerTelemetryDepthAndWatchCollectors checks the pull-time gauges
// against the server's own accounting. The watch half runs an async
// broker with a four-event ring and two subscribers held in their first
// delivery while the rest of the test's events wrap the ring: the first
// (no resync handler) drops the evicted span and then lags four events,
// the second resyncs from a snapshot after lagging one. So the broker-wide
// gauges read a maximum that is not the last subscriber's lag and sums
// that are not the last subscriber's counts.
func TestServerTelemetryDepthAndWatchCollectors(t *testing.T) {
	reg := telemetry.New()
	s := New(clock.NewSim(), WithTelemetry(reg), WithAsyncWatch(), WithWatchCapacity(4))
	defer s.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	held := func() func([]WatchEvent) {
		first := true
		return func([]WatchEvent) {
			if first {
				first = false
				entered <- struct{}{}
				<-release
			}
		}
	}
	// Close releases both subscriptions; an unsubscribe would wait out a
	// delivery that a failed check left held.
	s.SubscribeBatch(held(), nil)
	s.SubscribeBatch(held(), func(Snapshot) {})
	if err := s.RegisterNode(telemetryNode("n1")); err != nil {
		t.Fatal(err)
	}
	<-entered
	<-entered

	// Queue: two latency-sensitive at prio 100, one batch at prio 10,
	// one unclassified at prio 0.
	for _, p := range []*api.Pod{
		telemetryTestPod("ls-1", api.ClassLatencySensitive, 100, resource.GiB),
		telemetryTestPod("ls-2", api.ClassLatencySensitive, 100, resource.GiB),
		telemetryTestPod("b-1", api.ClassBatch, 10, resource.GiB),
		telemetryTestPod("u-1", api.ClassUnspecified, 0, resource.GiB),
	} {
		if err := s.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	reg.Collect()
	depth := reg.GaugeVec("apiserver_pending_depth", "class")
	if got := depth.With("latency-sensitive").Value(); got != 2 {
		t.Fatalf("depth{latency-sensitive} = %v, want 2", got)
	}
	if got := depth.With("batch").Value(); got != 1 {
		t.Fatalf("depth{batch} = %v, want 1", got)
	}
	if got := depth.With("unclassified").Value(); got != 1 {
		t.Fatalf("depth{unclassified} = %v, want 1", got)
	}
	prio := reg.GaugeVec("apiserver_pending_depth_priority", "priority")
	if got := prio.With("100").Value(); got != 2 {
		t.Fatalf("depth{priority=100} = %v, want 2", got)
	}
	if got := prio.With("0").Value(); got != 1 {
		t.Fatalf("depth{priority=0} = %v, want 1", got)
	}

	// Draining a tier zeroes its gauge instead of leaving it stale.
	if err := s.Bind("ls-1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("ls-2", "n1"); err != nil {
		t.Fatal(err)
	}
	reg.Collect()
	if got := prio.With("100").Value(); got != 0 {
		t.Fatalf("drained tier gauge = %v, want 0", got)
	}
	if got := depth.With("latency-sensitive").Value(); got != 0 {
		t.Fatalf("drained class gauge = %v, want 0", got)
	}

	// The watch gauges carry WatchStats once both subscribers are
	// released and caught up.
	close(release)
	s.QuiesceWatch()
	reg.Collect()
	ws := s.WatchStats()
	if ws.Subscribers != 2 || ws.Evicted == 0 {
		t.Fatalf("WatchStats = %+v, want a wrapped ring and two subscribers", ws)
	}
	dropping, resyncing := ws.PerSubscriber[0], ws.PerSubscriber[1]
	if dropping.Dropped == 0 || dropping.MaxLag != 4 || resyncing.Resyncs != 1 || resyncing.MaxLag != 1 {
		t.Fatalf("PerSubscriber = %+v, want the first to drop and lag 4, the second to resync once and lag 1", ws.PerSubscriber)
	}
	var maxLag, resyncs, dropped int64
	for _, ss := range ws.PerSubscriber {
		maxLag = max(maxLag, ss.MaxLag)
		resyncs += ss.Resyncs
		dropped += ss.Dropped
	}
	for name, want := range map[string]int64{
		"watch_published":   ws.Published,
		"watch_evicted":     ws.Evicted,
		"watch_subscribers": int64(ws.Subscribers),
		"watch_max_lag":     maxLag,
		"watch_resyncs":     resyncs,
		"watch_dropped":     dropped,
	} {
		if got := reg.Gauge(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, WatchStats reads %d", name, got, want)
		}
	}
}

// TestWatchSeriesConcurrentSubscriberChurn holds the export's size to
// the fleet's shape, not its subscription history: goroutines subscribe,
// create a pod, collect and unsubscribe concurrently, and afterwards the
// exposition carries exactly as many series as that of a server that ran
// the same pods without a subscriber, none of them keyed by subscriber.
func TestWatchSeriesConcurrentSubscriberChurn(t *testing.T) {
	exported := func(churn bool) string {
		reg := telemetry.New()
		s := New(clock.NewSim(), WithTelemetry(reg))
		defer s.Close()
		if err := s.RegisterNode(telemetryNode("n1")); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 25 {
					unsub := func() {}
					switch {
					case churn && i%2 == 0:
						unsub = s.SubscribeBatch(func([]WatchEvent) {}, func(Snapshot) {})
					case churn:
						unsub = s.SubscribeNode("n1", func([]WatchEvent) {}, nil)
					}
					if err := s.CreatePod(telemetryTestPod(fmt.Sprintf("p-%d-%d", g, i), api.ClassBatch, 0, resource.MiB)); err != nil {
						t.Error(err)
					}
					reg.Collect()
					unsub()
				}
			}()
		}
		wg.Wait()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	series := func(exposition string) (n int) {
		for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
			if !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	churned, quiet := exported(true), exported(false)
	if strings.Contains(churned, "subscriber=") {
		t.Errorf("%d exported series are keyed by subscriber", strings.Count(churned, "subscriber="))
	}
	if got, want := series(churned), series(quiet); got != want {
		t.Fatalf("exposition after subscriber churn carries %d series, %d without subscribers", got, want)
	}
}

// TestServerTelemetryCollectAllocs pins a self-scrape of a warm server:
// pending pods in two priority tiers and two classes, one bound pod and
// one subscriber, every gauge already made by a first Collect. The
// collector refills a map it owns, so the one object left is
// Broker.Stats' per-subscriber slice.
func TestServerTelemetryCollectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	reg := telemetry.New()
	s := New(clock.NewSim(), WithTelemetry(reg))
	defer s.Close()
	defer subscribeEach(s, func(WatchEvent) {})()
	if err := s.RegisterNode(telemetryNode("n1")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*api.Pod{
		telemetryTestPod("batch", api.ClassBatch, 0, resource.GiB),
		telemetryTestPod("ls", api.ClassLatencySensitive, 100, resource.GiB),
		telemetryTestPod("bound", api.ClassBatch, 0, resource.GiB),
	} {
		if err := s.CreatePod(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("bound", "n1"); err != nil {
		t.Fatal(err)
	}
	reg.Collect()
	if got := testing.AllocsPerRun(100, reg.Collect); got != 1 {
		t.Fatalf("Collect allocates %v objects, want 1 (Broker.Stats' slice)", got)
	}
}
