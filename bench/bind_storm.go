package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// bindStorm is the commit path under real concurrency: an async-watch
// API server, wide nodes, a deep backlog of request-only pods, and a
// sharded scheduler fleet whose members run their passes on their own
// goroutines. Each rep builds a fresh server and backlog (untimed), then
// times RunRound until nothing is pending plus QuiesceWatch. One op is
// one bind absorbed by every subscriber.
type bindStorm struct{}

const (
	stormPodMem       = 256 * resource.MiB
	stormBindsPerPass = 64
)

// Span names of the traced bind storm.
const (
	spanRound   = "core.round"
	spanQuiesce = "watch.quiesce"
)

func (bindStorm) name() string   { return "bind_storm" }
func (bindStorm) opName() string { return "bind absorbed by every subscriber" }

// stormSchedulers is the fleet size: two members where the host has two
// processors to run them on, one otherwise — more members than
// processors would measure oversubscription.
func stormSchedulers() int { return min(2, runtime.NumCPU()) }

// stormWatcher is one extra batch subscriber: it counts the binds it saw
// and notes a resync, after which its count is no longer exact.
type stormWatcher struct {
	binds    atomic.Int64
	resynced atomic.Bool
}

func (w *stormWatcher) onEvents(evs []apiserver.WatchEvent) {
	n := int64(0)
	for i := range evs {
		if evs[i].Type == apiserver.PodBound {
			n++
		}
	}
	w.binds.Add(n)
}

func (bindStorm) rep(rc *repCtx) error {
	var (
		srv      *apiserver.Server
		ss       *core.ShardedSchedulers
		watchers []*stormWatcher
		err      error
	)
	nodes, backlog := rc.sc.stormNodes, rc.sc.stormPods
	nodeName := func(n int) string { return fmt.Sprintf("node-%03d", n) }
	rc.setup(func() {
		clk := clock.NewSim()
		srv = apiserver.New(clk, apiserver.WithAsyncWatch())
		rc.cap.attach(srv, true, nil)
		alloc := resource.List{resource.Memory: 1 << 50, resource.CPU: 1 << 30}
		for n := 0; n < nodes; n++ {
			if err = srv.RegisterNode(&api.Node{
				Name: nodeName(n), Capacity: alloc.Clone(), Allocatable: alloc.Clone(), Ready: true,
			}); err != nil {
				return
			}
		}
		ss, err = core.NewSharded(clk, srv, nil, core.Config{
			Name: "storm", Policy: core.Binpack{}, MaxBindsPerPass: stormBindsPerPass,
		}, stormSchedulers(), true)
		if err != nil {
			return
		}
		for i := 0; i < rc.sc.stormWatchers; i++ {
			w := &stormWatcher{}
			watchers = append(watchers, w)
			srv.SubscribeBatch(w.onEvents, func(apiserver.Snapshot) { w.resynced.Store(true) })
		}
		// The seed names the pods, and the name decides a pod's shard and
		// its lock stripe.
		for p := 0; p < backlog; p++ {
			pod := &api.Pod{
				Name: fmt.Sprintf("pod-%x-%06d", subSeed(rc.seed, rc.rep, 0), p),
				Spec: api.PodSpec{Containers: []api.Container{{
					Name:      "main",
					Resources: api.Requirements{Requests: resource.List{resource.Memory: stormPodMem}},
				}}},
			}
			ss.Assign(pod)
			if err = srv.CreatePod(pod); err != nil {
				return
			}
		}
		// Every subscriber starts the timed region caught up: what is
		// timed is the drain, not the tail of the backlog's fan-out.
		srv.QuiesceWatch()
	})
	if err != nil {
		return err
	}

	bound, peak := 0, srv.PendingCount()
	rc.timed(func() {
		for srv.PendingCount() > 0 {
			bound += stormRound(rc.tr, ss)
		}
		id := rc.tr.begin(spanQuiesce, noSpan)
		srv.QuiesceWatch()
		rc.tr.end(id)
	})
	rc.res.ops = backlog
	rc.res.failed = backlog - bound

	// Checks, then teardown.
	bs, ws := srv.BindStats(), srv.WatchStats()
	var committed int64
	for n := 0; n < nodes; n++ {
		committed += srv.Committed(nodeName(n)).Get(resource.Memory)
	}
	rc.cap.detach()
	if rc.tr != nil {
		readServerCounters(rc, srv)
		readSchedulerCounters(rc, ss.Stats())
		rc.maxLayer(layerPeakPending, float64(peak))
		rc.measureLiveHeap()
	}
	rc.teardown(func() {
		ss.Close()
		srv.Close()
	})
	switch {
	case bound != backlog || bs.Bound != int64(backlog):
		return fmt.Errorf("bound %d (BindStats %d) of a %d backlog", bound, bs.Bound, backlog)
	case committed != int64(backlog)*stormPodMem:
		return fmt.Errorf("nodes hold %d committed bytes, want %d", committed, int64(backlog)*stormPodMem)
	}
	for _, sub := range ws.PerSubscriber {
		if sub.Dropped != 0 {
			return fmt.Errorf("subscriber %d dropped %d events", sub.ID, sub.Dropped)
		}
	}
	for i, w := range watchers {
		if got := w.binds.Load(); got != int64(backlog) && !w.resynced.Load() {
			return fmt.Errorf("watcher %d saw %d of %d binds without a resync", i, got, backlog)
		}
	}
	return nil
}

// stormRound is one round of the fleet. Untraced it is RunRound itself;
// traced it is RunRound's concurrent branch restated so that every
// member's pass gets its own span under the round's.
func stormRound(tr *tracer, ss *core.ShardedSchedulers) int {
	if tr == nil {
		return ss.RunRound()
	}
	round := tr.begin(spanRound, noSpan)
	var total atomic.Int64
	var wg sync.WaitGroup
	for _, m := range ss.Members() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin(spanPass, round)
			n := m.ScheduleOnce()
			tr.end(id)
			if n == 0 {
				tr.rename(id, spanPassIdle)
			}
			total.Add(int64(n))
		}()
	}
	wg.Wait()
	tr.end(round)
	return int(total.Load())
}
