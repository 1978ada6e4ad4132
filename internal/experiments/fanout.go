package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// This file is the event fan-out scaling experiment: PR 4's sharded
// throughput benchmark showed that with synchronous watch delivery,
// every bind's event is handed to all subscriber caches inside the
// commit path, so real-goroutine binds/sec *degrades* as schedulers are
// added. The internal/watch broker decouples commit from fan-out; this
// experiment quantifies it by draining the same backlog with 1/2/4/8
// concurrent schedulers while 0..32 extra watchers (monitors, UIs,
// autoscalers — anything consuming the event stream) ride the broker,
// under both delivery modes. The async broker should hold (and scale)
// binds/sec as schedulers and watchers grow; the sync broker pays the
// fan-out inside a mutating call — since the combining Flush, inside
// whichever commit holds the flush, for everybody's events.

// FanoutConfig parameterises one backlog drain under event fan-out.
type FanoutConfig struct {
	// Schedulers is the concurrent scheduler count (>= 1).
	Schedulers int
	// Watchers is the number of extra event-stream subscribers beyond
	// the schedulers' own caches.
	Watchers int
	// Async selects the asynchronous watch broker; false is the
	// synchronous (inline-delivery) baseline.
	Async bool
	// Nodes / Backlog shape the cluster and workload (128 / 1024 by
	// default).
	Nodes   int
	Backlog int
}

// fanoutBindsPerPass is each member's per-pass bind budget, matching the
// sharded throughput benchmark.
const fanoutBindsPerPass = 64

func (c FanoutConfig) withDefaults() FanoutConfig {
	if c.Schedulers <= 0 {
		c.Schedulers = 1
	}
	if c.Nodes <= 0 {
		c.Nodes = 128
	}
	if c.Backlog <= 0 {
		c.Backlog = 1024
	}
	return c
}

// FanoutResult reports one drain.
type FanoutResult struct {
	Schedulers int
	Watchers   int
	Async      bool
	// Bound is the pods bound (== backlog on success); Elapsed the
	// wall-clock drain time and BindsPerSecond the throughput.
	Bound          int
	Elapsed        time.Duration
	BindsPerSecond float64
	// WatcherEvents counts events observed across all extra watchers
	// (after quiescing, each watcher has seen the full stream or
	// resynced past the part it missed).
	WatcherEvents int64
	// Broker accounting: total callback batches across subscribers,
	// mean batch size, resyncs forced by ring overflow, and the worst
	// subscriber lag observed (events behind the head).
	Batches   int64
	MeanBatch float64
	Resyncs   int64
	MaxLag    int64
}

// FanoutDrain drains a memory-only backlog through N concurrent
// schedulers with W extra watchers subscribed, measuring wall-clock
// bind throughput. The cluster is deliberately wide and the pods
// request-only, so the measurement isolates the control plane — commit
// plus fan-out — rather than placement difficulty (every bind
// succeeds; scheduling work parallelizes across members).
func FanoutDrain(cfg FanoutConfig) (FanoutResult, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewSim() // never advanced: rounds are driven manually
	var opts []apiserver.Option
	if cfg.Async {
		opts = append(opts, apiserver.WithAsyncWatch())
	}
	srv := apiserver.New(clk, opts...)
	defer srv.Close()

	alloc := resource.List{resource.Memory: 1 << 50, resource.CPU: 1 << 30}
	for n := 0; n < cfg.Nodes; n++ {
		if err := srv.RegisterNode(&api.Node{
			Name:        fmt.Sprintf("node-%03d", n),
			Capacity:    alloc,
			Allocatable: alloc,
			Ready:       true,
		}); err != nil {
			return FanoutResult{}, fmt.Errorf("fanout: registering node: %w", err)
		}
	}

	// Extra watchers model the monitors, autoscalers and dashboards a
	// production control plane fans out to: each counts the events it
	// observes and resyncs from a snapshot if it falls off the ring.
	var watcherEvents atomic.Int64
	for w := 0; w < cfg.Watchers; w++ {
		unsub := srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
			watcherEvents.Add(int64(len(evs)))
		}, func(apiserver.Snapshot) {})
		defer unsub()
	}

	ss, err := core.NewSharded(clk, srv, nil, core.Config{
		Name:            "fanout",
		Policy:          core.Binpack{},
		MaxBindsPerPass: fanoutBindsPerPass,
	}, cfg.Schedulers, true /* real-goroutine rounds */)
	if err != nil {
		return FanoutResult{}, fmt.Errorf("fanout: building schedulers: %w", err)
	}
	defer ss.Close()

	for p := 0; p < cfg.Backlog; p++ {
		pod := &api.Pod{
			Name: fmt.Sprintf("pod-%06d", p),
			Spec: api.PodSpec{
				Containers: []api.Container{{
					Name:      "main",
					Resources: api.Requirements{Requests: resource.List{resource.Memory: 256 * resource.MiB}},
				}},
			},
		}
		ss.Assign(pod)
		if err := srv.CreatePod(pod); err != nil {
			return FanoutResult{}, fmt.Errorf("fanout: submitting backlog: %w", err)
		}
	}

	start := time.Now()
	bound := 0
	for srv.PendingCount() > 0 {
		bound += ss.RunRound()
	}
	srv.QuiesceWatch() // the drain is not over until the fan-out settled
	elapsed := time.Since(start)

	res := FanoutResult{
		Schedulers:    cfg.Schedulers,
		Watchers:      cfg.Watchers,
		Async:         cfg.Async,
		Bound:         bound,
		Elapsed:       elapsed,
		WatcherEvents: watcherEvents.Load(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.BindsPerSecond = float64(bound) / secs
	}
	st := srv.WatchStats()
	var delivered int64
	for _, sub := range st.PerSubscriber {
		delivered += sub.Delivered
		res.Batches += sub.Batches
		res.Resyncs += sub.Resyncs
		if sub.MaxLag > res.MaxLag {
			res.MaxLag = sub.MaxLag
		}
	}
	if res.Batches > 0 {
		res.MeanBatch = float64(delivered) / float64(res.Batches)
	}
	return res, nil
}

// FanoutScenarioConfig shapes the fan-out grid.
type FanoutScenarioConfig struct {
	// Schedulers and Watchers are the grid axes ({1,2,4,8} and
	// {1,8,32} by default).
	Schedulers []int
	Watchers   []int
	// Nodes/Backlog as in FanoutConfig.
	Nodes   int
	Backlog int
}

// FanoutScenario sweeps schedulers × watchers × {sync, async} and
// returns one result per cell, sync first, in grid order.
func FanoutScenario(cfg FanoutScenarioConfig) ([]FanoutResult, error) {
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []int{1, 2, 4, 8}
	}
	if len(cfg.Watchers) == 0 {
		cfg.Watchers = []int{1, 8, 32}
	}
	var out []FanoutResult
	for _, async := range []bool{false, true} {
		for _, scheds := range cfg.Schedulers {
			for _, watchers := range cfg.Watchers {
				res, err := FanoutDrain(FanoutConfig{
					Schedulers: scheds,
					Watchers:   watchers,
					Async:      async,
					Nodes:      cfg.Nodes,
					Backlog:    cfg.Backlog,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, res)
			}
		}
	}
	return out, nil
}
