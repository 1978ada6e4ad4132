package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/lifecycle"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/telemetry"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// maxCapturedWrites bounds the write log kept in memory (one full-scale
// metrics_rw rep writes 460 800 samples).
const maxCapturedWrites = 1 << 20

// capture records, on one traced rep, everything the workload did to the
// API server (through one extra watch subscriber) and to the TSDB
// (through one extra write observer). After the run each log is replayed
// through one layer alone, which prices layers that only ever run nested
// inside another — the commit inside Bind inside the pass — on the
// workload's own traffic. A nil capture records nothing.
type capture struct {
	events []apiserver.WatchEvent
	writes []writeRec
	// async records that the captured server delivered through pumps, so
	// the replays run their servers the same way.
	async bool
	// lossy is set if the subscriber fell off the watch ring or the write
	// log hit its cap: the replays then price a prefix, not the whole rep.
	lossy bool

	tags  map[[2]string]tsdb.Tags
	unsub []func()
}

// writeRec is one captured TSDB write. Tag maps are interned per
// (pod, node): the observer contract forbids retaining the writer's map.
type writeRec struct {
	measurement string
	tags        tsdb.Tags
	value       float64
	t           time.Time
}

func newCapture() *capture { return &capture{tags: make(map[[2]string]tsdb.Tags)} }

// attach subscribes the capture to a server (saying whether its watch is
// asynchronous) and/or a database.
func (c *capture) attach(srv *apiserver.Server, async bool, db *tsdb.DB) {
	if c == nil {
		return
	}
	if srv != nil {
		c.async = async
		c.unsub = append(c.unsub, srv.SubscribeBatch(func(evs []apiserver.WatchEvent) {
			// Event pods and nodes are deep copies, safe to retain.
			c.events = append(c.events, evs...)
		}, func(apiserver.Snapshot) { c.lossy = true }))
	}
	if db != nil {
		c.unsub = append(c.unsub, db.OnWrite(c.onWrite))
	}
}

func (c *capture) onWrite(measurement string, tags tsdb.Tags, value float64, t time.Time) {
	if len(c.writes) >= maxCapturedWrites {
		c.lossy = true
		return
	}
	var kept tsdb.Tags
	if pod, node := tags[monitor.TagPod], tags[monitor.TagNode]; len(tags) == 2 && pod != "" && node != "" {
		key := [2]string{pod, node}
		if kept = c.tags[key]; kept == nil {
			kept = tags.Clone()
			c.tags[key] = kept
		}
	} else {
		kept = tags.Clone()
	}
	c.writes = append(c.writes, writeRec{measurement, kept, value, t})
}

// detach unsubscribes; the logs stay.
func (c *capture) detach() {
	if c == nil {
		return
	}
	for _, u := range c.unsub {
		u()
	}
	c.unsub = nil
}

// replayMutations applies the captured event log to srv as the mutations
// that produced it, and returns how long that took and how many events
// it could not reproduce (gang permit events, which none of the
// workloads emit, and anything a lossy capture left without its
// precondition).
func replayMutations(srv *apiserver.Server, log []apiserver.WatchEvent) (elapsed time.Duration, skipped int) {
	t0 := time.Now()
	for i := range log {
		ev := &log[i]
		var err error
		switch ev.Type {
		case apiserver.NodeRegistered:
			err = srv.RegisterNode(ev.Node)
		case apiserver.NodeUpdated:
			err = srv.UpdateNode(ev.Node)
		case apiserver.PodCreated:
			err = srv.CreatePod(ev.Pod)
		case apiserver.PodBound:
			err = srv.Bind(ev.Pod.Name, ev.Pod.Spec.NodeName)
		case apiserver.PodUpdated:
			switch ev.Pod.Status.Phase {
			case api.PodRunning:
				err = srv.MarkRunning(ev.Pod.Name)
			case api.PodSucceeded:
				err = srv.MarkSucceeded(ev.Pod.Name)
			case api.PodFailed:
				err = srv.MarkFailed(ev.Pod.Name, ev.Pod.Status.Reason)
			case api.PodPending:
				err = srv.Preempt(ev.Pod.Name, strings.TrimPrefix(ev.Pod.Status.Reason, "Preempted: "))
			}
		default:
			err = errors.New("not a replayable mutation")
		}
		if err != nil {
			skipped++
		}
	}
	return time.Since(t0), skipped
}

// mutationCosts are the replayed per-event prices of the layers the
// event stream runs through.
type mutationCosts struct {
	commitNS, deliverNS, cacheNS, lifeNS float64
}

// priceMutations replays the mutation log four ways: into a bare server
// (the commit path alone), into a server with k no-op batch subscribers
// (fan-out, per event and subscriber), into a server with one
// never-started scheduler subscribed (the cluster cache's apply), and
// straight into a lifecycle tracker. The subtractive figures clamp at 0.
func priceMutations(log []apiserver.WatchEvent, subscribers int, async bool) (mutationCosts, error) {
	var out mutationCosts
	if len(log) == 0 {
		return out, nil
	}
	newServer := func(clk clock.Clock) *apiserver.Server {
		if async {
			return apiserver.New(clk, apiserver.WithAsyncWatch())
		}
		return apiserver.New(clk)
	}
	// replayInto times the log into a fresh server that prepare has
	// dressed, fan-out included.
	replayInto := func(prepare func(clk *clock.Sim, srv *apiserver.Server) (undo func())) time.Duration {
		clk := clock.NewSim()
		srv := newServer(clk)
		defer srv.Close()
		defer prepare(clk, srv)()
		t0 := time.Now()
		replayMutations(srv, log)
		srv.QuiesceWatch()
		return time.Since(t0)
	}
	// Each arm runs three times and keeps its fastest pass: the arms are
	// compared by subtraction, so one slow pass would swamp the difference.
	best := func(arm func() time.Duration) float64 {
		least := arm()
		for i := 0; i < 2; i++ {
			least = min(least, arm())
		}
		return float64(least.Nanoseconds())
	}
	n := float64(len(log))

	bare := best(func() time.Duration {
		return replayInto(func(*clock.Sim, *apiserver.Server) func() { return func() {} })
	})
	out.commitNS = bare / n

	if subscribers > 0 {
		fanned := best(func() time.Duration {
			return replayInto(func(_ *clock.Sim, srv *apiserver.Server) func() {
				var unsubs []func()
				for i := 0; i < subscribers; i++ {
					unsubs = append(unsubs, srv.SubscribeBatch(func([]apiserver.WatchEvent) {}, func(apiserver.Snapshot) {}))
				}
				return func() {
					for _, u := range unsubs {
						u()
					}
				}
			})
		})
		out.deliverNS = clampSub(fanned, bare) / (n * float64(subscribers))
	}

	var schedErr error
	cached := best(func() time.Duration {
		return replayInto(func(clk *clock.Sim, srv *apiserver.Server) func() {
			sched, err := core.New(clk, srv, nil, core.Config{Name: "replay", Policy: core.Binpack{}})
			if err != nil {
				schedErr = fmt.Errorf("cache-apply replay: %w", err)
				return func() {}
			}
			return sched.Close
		})
	})
	if schedErr != nil {
		return out, schedErr
	}
	out.cacheNS = clampSub(cached, bare) / n

	out.lifeNS = best(func() time.Duration {
		tracker := lifecycle.New(telemetry.New())
		t0 := time.Now()
		for lo := 0; lo < len(log); lo += 256 {
			tracker.Consume(log[lo:min(lo+256, len(log))])
		}
		return time.Since(t0)
	}) / n
	return out, nil
}

// writeCosts are the replayed per-point prices of the TSDB write path
// and of the streaming window-max aggregator riding it.
type writeCosts struct {
	writeNS, windowMaxNS    float64
	scanUS, sweepUS, lookup float64
	swept, series, wmSeries int
}

// replayWrites writes the captured log into a fresh database on its own
// simulated clock, advanced to each sample's timestamp so pruning and the
// retention sweep behave as they did in the run.
func replayWrites(log []writeRec, withWindowMax bool, opts ...tsdb.Option) (elapsed time.Duration, clk *clock.Sim, db *tsdb.DB, wm *monitor.WindowMax) {
	clk = clock.NewSim()
	db = tsdb.New(clk, opts...)
	if withWindowMax {
		wm = monitor.NewWindowMax(clk, db, core.DefaultWindow, monitor.MeasurementEPC, monitor.MeasurementMemory)
	}
	t0 := time.Now()
	for i := range log {
		w := &log[i]
		if w.t.After(clk.Now()) {
			clk.RunUntil(w.t)
			if wm != nil {
				wm.Refresh()
			}
		}
		db.Write(w.measurement, w.tags, w.value, w.t)
	}
	return time.Since(t0), clk, db, wm
}

// priceWrites replays the write log with and without a WindowMax, then
// measures the read-side primitives on the database the replay left.
func priceWrites(log []writeRec) writeCosts {
	var out writeCosts
	if len(log) == 0 {
		return out
	}
	n := float64(len(log))
	var plain, withWM time.Duration
	for i := 0; i < 3; i++ {
		d, _, db, _ := replayWrites(log, false)
		db.Close()
		if i == 0 || d < plain {
			plain = d
		}
		d, _, db, wm := replayWrites(log, true)
		wm.Close()
		db.Close()
		if i == 0 || d < withWM {
			withWM = d
		}
	}
	out.writeNS = float64(plain.Nanoseconds()) / n
	out.windowMaxNS = clampSub(float64(withWM.Nanoseconds()), float64(plain.Nanoseconds())) / n

	_, clk, db, wm := replayWrites(log, true)
	defer db.Close()
	defer wm.Close()
	out.series, out.wmSeries = db.SeriesCount(), wm.SeriesCount()

	// A Listing 1 window over a whole measurement, through the scan path.
	const scans = 50
	measurement := log[len(log)-1].measurement
	from := clk.Now().Add(-core.DefaultWindow)
	t0 := time.Now()
	for i := 0; i < scans; i++ {
		db.Scan(measurement, from, time.Time{}, func(tsdb.Tags, []tsdb.Point) bool { return true })
	}
	out.scanUS = float64(time.Since(t0).Microseconds()) / scans

	// Window-max lookups over the most recent series.
	lookups := 0
	t0 = time.Now()
	for i := len(log) - 1; i >= 0 && lookups < 4096; i-- {
		w := &log[i]
		wm.Max(w.measurement, w.tags[monitor.TagPod], w.tags[monitor.TagNode])
		lookups++
	}
	out.lookup = float64(time.Since(t0).Nanoseconds()) / float64(lookups)

	// One sweep over everything the run left dead: the log replayed with
	// the background sweep off, so the expired series are all still there.
	_, _, unswept, _ := replayWrites(log, false, tsdb.WithGCInterval(0))
	t0 = time.Now()
	out.swept = unswept.SweepNow()
	out.sweepUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	return out
}
