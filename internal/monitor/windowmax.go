package monitor

import (
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/minheap"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// WindowMax is a streaming sliding-window-max aggregator: it keeps the
// peak non-zero value of the trailing window continuously current for
// every (measurement, pod_name, nodename) series — the inner query of
// Listing 1 (MAX(value) WHERE value <> 0 AND time >= now() - 25s GROUP BY
// pod_name, nodename) computed incrementally instead of re-scanned per
// scheduling pass.
//
// It subscribes to the database write path (tsdb.OnWrite) and maintains a
// monotonic deque per series: times non-decreasing, values strictly
// decreasing front to back, so the front is always the window max and
// each point is pushed and popped at most once — O(1) amortized per
// sample. Zero-valued samples are skipped, mirroring Listing 1's
// value <> 0 filter. Out-of-order samples take a rare O(deque) insertion
// path that preserves the invariant.
//
// Because the max also changes when the peak ages out of the window with
// no write in between, series register their front's instant in a
// min-heap, whose order is the fronts' expiry order; Refresh pops only the
// series whose front actually expired (fell before now − window), so
// keeping the whole keyspace current costs O(expired · log series), not
// O(series). The heap is a typed binary heap of (instant, *series) pairs
// — nothing is boxed, so a steady-state sample allocates nothing — and it
// is lazy: a front change pushes a fresh entry and leaves the old one to
// be recognised as stale (its instant no longer matches the series'
// front) when it surfaces. Instants are Unix nanoseconds
// (tsdb.UnixNanos), so a deque entry is 16 pointer-free bytes and every
// comparison is an integer one. Series records are carved from chunks of
// 64, a series' first two deque entries live inside its record, which
// covers a pod whose usage peak holds steady, and Refresh collects its
// transitions into a buffer it keeps, so a new steady series allocates
// only its share of a chunk and a warm Refresh allocates nothing. The
// change callback (SetOnChange) fires on every observable max transition
// — a new peak value from a write, a drop from expiry — and not when a
// later sample of the same value takes over a front still in the window;
// that is what lets a consumer (the scheduler's ClusterCache) maintain
// derived sums incrementally.
//
// The window must not exceed the database retention period: retention
// clamping happens on the InfluxQL read path but not here.
type WindowMax struct {
	clk    clock.Clock
	window time.Duration
	keep   map[string]bool // tracked measurements

	mu       sync.Mutex
	series   map[wmKey]*wmSeries
	expiry   minheap.Heap[*wmSeries]
	onChange func(measurement, pod, node string, max float64, ok bool)
	// changes is Refresh's transition buffer, kept across calls so a warm
	// Refresh allocates nothing. A Refresh takes it under mu and puts it
	// back once it has announced them; one running meanwhile grows its own.
	changes []wmChange
	spare   []wmSeries // new series' records, carved from chunks of 64

	unsubscribe func()
}

// wmKey identifies one aggregated series the way Listing 1's GROUP BY
// pod_name, nodename intends; points sharing (pod, node) fold into one
// deque regardless of the underlying tsdb series.
type wmKey struct {
	measurement string
	pod, node   string
}

type wmPoint struct {
	t int64 // Unix nanoseconds
	v float64
}

// wmSeries holds one monotonic deque, and the key it is filed under so
// an expiry entry needs only the pointer. A series leaves w.series only
// once its deque is empty, and nothing can fill it again afterwards: an
// empty deque is what marks a dropped series to the heap entries that
// still point at it. A dropped record is cleared, so its chunk keeps
// neither its names nor a grown deque alive. The deque starts on head,
// inside the record: a pod whose usage holds steady keeps at most two
// entries (the peak and the latest sample), so its series allocates
// nothing past its share of a chunk.
type wmSeries struct {
	key  wmKey
	dq   []wmPoint
	head [2]wmPoint
}

// dropExpired evicts the front entries older than cutoff by moving the
// rest down: the deque keeps the head of its array, so a series whose
// deque is not growing never reallocates it.
func (s *wmSeries) dropExpired(cutoff int64) {
	k := 0
	for k < len(s.dq) && s.dq[k].t < cutoff {
		k++
	}
	if k > 0 {
		s.dq = s.dq[:copy(s.dq, s.dq[k:])]
	}
}

// wmChange is one observable max transition, collected under the lock
// and delivered after it is released.
type wmChange struct {
	key wmKey
	max float64
	ok  bool
}

// NewWindowMax creates an aggregator for the given measurements, attaches
// it to the database write path, and backfills the current window from
// the stored points so its view starts consistent. Call Close to detach.
func NewWindowMax(clk clock.Clock, db *tsdb.DB, window time.Duration, measurements ...string) *WindowMax {
	w := &WindowMax{
		clk:    clk,
		window: window,
		keep:   make(map[string]bool, len(measurements)),
		series: make(map[wmKey]*wmSeries),
	}
	for _, m := range measurements {
		w.keep[m] = true
	}
	// Subscribe before backfilling: a write racing the handshake is then
	// observed twice (once live, once by the scan), which the deque
	// absorbs, instead of being missed entirely.
	w.unsubscribe = db.OnWrite(w.onWrite)
	now := clk.Now()
	cutoff := w.cutoff(now)
	for _, m := range measurements {
		db.Scan(m, now.Add(-window), time.Time{}, func(tags tsdb.Tags, pts []tsdb.Point) bool {
			w.mu.Lock()
			for _, p := range pts {
				w.observeLocked(m, tags[TagPod], tags[TagNode], p.Value, p.Nanos, cutoff)
			}
			w.mu.Unlock()
			return true
		})
	}
	return w
}

// Close detaches the aggregator from the database write path.
func (w *WindowMax) Close() {
	if w.unsubscribe != nil {
		w.unsubscribe()
		w.unsubscribe = nil
	}
}

// cutoff is the oldest instant the window holds at now: an entry before
// it has expired.
func (w *WindowMax) cutoff(now time.Time) int64 { return tsdb.UnixNanos(now.Add(-w.window)) }

// SetOnChange registers the single change callback. It fires when a
// series' peak value changes or the series empties. A later sample of
// the same value taking over a front still in the window is not a change;
// one bringing back a peak that had aged out, which Max no longer read,
// is. It runs on the goroutine that triggered the transition (a metric
// write or a Refresh), with the aggregator lock released; it may call
// Max but must not call Refresh or Close.
func (w *WindowMax) SetOnChange(fn func(measurement, pod, node string, max float64, ok bool)) {
	w.mu.Lock()
	w.onChange = fn
	w.mu.Unlock()
}

// Max returns the current window peak for one series, or ok=false when no
// non-zero sample lies in the window. It is a pure read: expired front
// entries are skipped, not evicted, so it is safe to call from the change
// callback.
func (w *WindowMax) Max(measurement, pod, node string) (float64, bool) {
	cutoff := w.cutoff(w.clk.Now())
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.series[wmKey{measurement: measurement, pod: pod, node: node}]
	if !ok {
		return 0, false
	}
	// Values decrease front to back, so the first unexpired entry is the
	// window max.
	for _, p := range s.dq {
		if p.t >= cutoff {
			return p.v, true
		}
	}
	return 0, false
}

// SeriesCount returns the number of live aggregated series (for tests).
func (w *WindowMax) SeriesCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.series)
}

// Refresh evicts every front entry that has aged out of the window and
// fires the change callback for each affected series. Only series whose
// registered expiry has passed are touched. Consumers call it once per
// scheduling pass, before reading.
func (w *WindowMax) Refresh() {
	cutoff := w.cutoff(w.clk.Now())
	w.mu.Lock()
	changes := w.changes[:0]
	w.changes = nil
	for len(w.expiry) > 0 && w.expiry[0].At < cutoff {
		ent := w.expiry.Pop()
		s := ent.Val
		if len(s.dq) == 0 || s.dq[0].t != ent.At {
			// Stale entry: the series was dropped, or its front changed
			// after this was pushed, and that transition already
			// announced itself and registered a fresh expiry.
			continue
		}
		s.dropExpired(cutoff)
		if len(s.dq) == 0 {
			delete(w.series, s.key)
			changes = append(changes, wmChange{key: s.key})
			*s = wmSeries{}
			continue
		}
		w.expiry.Push(s.dq[0].t, s)
		changes = append(changes, wmChange{key: s.key, max: s.dq[0].v, ok: true})
	}
	fn := w.onChange
	w.mu.Unlock()
	w.fire(fn, changes)
	clear(changes) // the buffer pins no dropped series' names
	w.mu.Lock()
	w.changes = changes[:0]
	w.mu.Unlock()
}

// onWrite is the tsdb write-path hook.
func (w *WindowMax) onWrite(measurement string, tags tsdb.Tags, value float64, t time.Time) {
	if !w.keep[measurement] {
		return
	}
	cutoff := w.cutoff(w.clk.Now())
	w.mu.Lock()
	change, changed := w.observeLocked(measurement, tags[TagPod], tags[TagNode], value, tsdb.UnixNanos(t), cutoff)
	fn := w.onChange
	w.mu.Unlock()
	if changed {
		w.fire(fn, []wmChange{change})
	}
}

func (w *WindowMax) fire(fn func(string, string, string, float64, bool), changes []wmChange) {
	if fn == nil {
		return
	}
	for _, c := range changes {
		fn(c.key.measurement, c.key.pod, c.key.node, c.max, c.ok)
	}
}

// observeLocked folds one sample into its deque and reports whether the
// observable max changed. The comparison is against the pre-eviction
// front — the value last announced for this series — so a peak that ages
// out exactly when a smaller sample arrives is still reported as a drop.
// A new front carrying the announced value (a later sample equal to the
// peak) is not reported, though its expiry is registered — unless the old
// front had expired: Max skipped it from then on, so a reader may have
// seen the peak gone, and the sample that brings it back is news.
// t and cutoff are Unix nanoseconds. Caller must hold w.mu.
func (w *WindowMax) observeLocked(measurement, pod, node string, v float64, t, cutoff int64) (wmChange, bool) {
	if v == 0 {
		return wmChange{}, false // Listing 1: WHERE value <> 0
	}
	if t < cutoff {
		return wmChange{}, false // already outside the window
	}
	key := wmKey{measurement: measurement, pod: pod, node: node}
	s, ok := w.series[key]
	if !ok {
		if len(w.spare) == 0 {
			w.spare = make([]wmSeries, 64)
		}
		s, w.spare = &w.spare[0], w.spare[1:]
		s.key = key
		s.dq = s.head[:0]
		w.series[key] = s
	}
	var oldFront wmPoint
	hadFront := len(s.dq) > 0
	if hadFront {
		oldFront = s.dq[0]
	}
	// Expired fronts are invisible to Max already; drop them quietly.
	s.dropExpired(cutoff)
	s.insert(wmPoint{t: t, v: v})
	front := s.dq[0] // insert on an emptied deque appends, so dq is never empty here
	if hadFront && front == oldFront {
		return wmChange{}, false
	}
	w.expiry.Push(front.t, s)
	if hadFront && front.v == oldFront.v && oldFront.t >= cutoff {
		return wmChange{}, false // the announced peak stands, and stood all along
	}
	return wmChange{key: key, max: front.v, ok: true}, true
}

// insert adds a point to the monotonic deque. The common case — samples
// arriving in time order — pops dominated entries off the back and
// appends, O(1) amortized. An out-of-order sample is placed at its
// time-ordered position after discarding the earlier entries it
// dominates, unless a later entry already dominates it.
func (s *wmSeries) insert(p wmPoint) {
	n := len(s.dq)
	if n == 0 || p.t >= s.dq[n-1].t {
		for len(s.dq) > 0 && s.dq[len(s.dq)-1].v <= p.v {
			s.dq = s.dq[:len(s.dq)-1]
		}
		s.dq = append(s.dq, p)
		return
	}
	// Out-of-order: i is the first entry strictly later than p.
	i := 0
	for i < n && s.dq[i].t <= p.t {
		i++
	}
	if s.dq[i].v >= p.v {
		return // a later-or-equal-time entry dominates p
	}
	j := i
	for j > 0 && s.dq[j-1].v <= p.v {
		j-- // p dominates these earlier entries
	}
	if j == i {
		s.dq = append(s.dq, wmPoint{})
		copy(s.dq[j+1:], s.dq[j:])
		s.dq[j] = p
		return
	}
	copy(s.dq[j+1:], s.dq[i:])
	s.dq = s.dq[:n-(i-j)+1]
	s.dq[j] = p
}
