// Package tsdb is the in-memory stand-in for the InfluxDB instance of the
// paper's monitoring pipeline (§V-C): Heapster pushes standard-memory
// samples and the SGX probes push EPC samples into it, and the scheduler
// runs sliding-window queries (Listing 1) against it through the
// internal/influxql engine.
//
// Data model: a measurement (e.g. "sgx/epc") contains tagged series
// (pod_name, nodename); each series is an append-mostly list of
// timestamped float64 samples of a single field called "value", matching
// how Heapster writes metrics.
//
// Layout: series are indexed per measurement and every series keeps its
// points time-ordered, so sliding-window reads binary-search the window
// bounds and visit points in place (Scan) instead of copying the whole
// keyspace. Retention is enforced three ways: points are pruned on write,
// reads clamp their window to the retention cutoff so expired points are
// never observed, and a clock-driven garbage-collection sweep deletes
// whole series whose newest point has aged out — so series of terminated
// pods do not accumulate over a long replay.
//
// Instants: a point is 16 pointer-free bytes, its instant as Unix
// nanoseconds in an int64 (saturated at the range's ends by UnixNanos)
// and its value. The garbage collector never scans point storage, and
// every search, insert, prune and sweep compares integers; time.Time
// appears only at the API (Write, WriteObserver, Scan's bounds, Now). A
// write reads the database clock once, for its prune and, in WriteNow,
// its stamp.
//
// Identity: a series' canonical key and its tag set are rendered once,
// when its first point arrives, and never again. Write resolves an
// existing series without allocating — the key is rendered into a buffer
// the database owns and looked up in place — and neither retains the
// writer's map nor shows it to anyone: write observers and Scan callbacks
// receive the series' own stored tag set, which is immutable from
// creation until the sweep drops the series. A writer may therefore refill
// and reuse one map across writes, and a reader may keep the tag set it
// was handed, but must never modify it.
//
// Recycling: point storage circulates between series, since no reader
// holds it: Scan's window slices do not outlive the callback and Series
// returns copies. Every point buffer has a power-of-two capacity, its
// class. A series that outgrows its buffer moves into one of twice the
// capacity, taken from the spare list the database keeps for that class
// (allocated only when the list is empty), and leaves its old buffer on
// the spare list of its own class, where the next series to grow through
// that class finds it. A swept series' entry goes onto a free list with
// its buffer, and a series created later takes it, so it allocates only
// its key and its tag clone; a swept series the free list has no room for
// leaves its buffer on the spare lists. Spares never hold more point
// capacity than the live series do: growth keeps that true, and SweepNow
// drops spares, largest class first, until it is true again. Fresh
// entries are carved from chunks of 64. Tag sets are never recycled,
// since a reader may keep one.
package tsdb

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
)

// Point is one timestamped sample. Nanos is its instant in Unix
// nanoseconds, as UnixNanos renders it.
type Point struct {
	Nanos int64
	Value float64
}

// unixEpoch is the instant UnixNanos measures from.
var unixEpoch = time.Unix(0, 0)

// UnixNanos returns t as Unix nanoseconds, saturated to the int64 range:
// an instant before 1678 reads as math.MinInt64 and one after 2262 as
// math.MaxInt64, where time.Time.UnixNano's result is undefined (it maps
// the zero time.Time to a date in 1754 and year 1500 to one in 2084).
// The saturation is time.Time.Sub's, which clamps to the Duration range,
// and that is the int64 nanosecond range. Every conversion of a
// monitoring instant goes through here, so integer order is time order
// wherever the two meet.
func UnixNanos(t time.Time) int64 { return int64(t.Sub(unixEpoch)) }

// Tags identifies a series within a measurement.
type Tags map[string]string

// Clone copies the tag set.
func (t Tags) Clone() Tags {
	out := make(Tags, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// appendCanonical renders tags deterministically — "k=v," per tag, keys
// sorted — onto buf, for use as a map key. The bytes that delimit the
// rendering (',' and '=', and the escape byte '\\' itself) are escaped
// inside keys and values, so distinct tag sets never share a key; a tag
// set without them renders as it always has. Up to eight keys sort on the
// stack.
func appendCanonical(buf []byte, t Tags) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range t {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendEscaped(buf, k)
		buf = append(buf, '=')
		buf = appendEscaped(buf, t[k])
		buf = append(buf, ',')
	}
	return buf
}

func appendEscaped(buf []byte, s string) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '=' || c == '\\' {
			buf = append(append(buf, s[from:i]...), '\\')
			from = i
		}
	}
	return append(buf, s[from:]...)
}

// SeriesData is a copy of one series returned by queries.
type SeriesData struct {
	Measurement string
	Tags        Tags
	Points      []Point
}

// DefaultRetention bounds how much history is kept. The scheduler only
// queries short sliding windows (25 s in Listing 1), so minutes of history
// suffice.
const DefaultRetention = 10 * time.Minute

// DefaultGCInterval is how often the background sweep looks for series
// whose newest point has aged out of retention.
const DefaultGCInterval = time.Minute

// WriteObserver is a write-path subscription callback (see OnWrite). It
// runs synchronously on the writing goroutine after the database lock is
// released; tags are the series' own stored tag set, not the writer's
// map: they never change, may be retained, and must not be mutated.
type WriteObserver func(measurement string, tags Tags, value float64, t time.Time)

// writeObserver is one registered observer; the slice is ordered by id
// (ids are monotonic and appended), keeping delivery deterministic.
type writeObserver struct {
	id int
	fn WriteObserver
}

// DB is the in-memory time-series database.
type DB struct {
	clk        clock.Clock
	retention  time.Duration
	gcInterval time.Duration

	mu           sync.Mutex
	measurements map[string]*measurementIndex
	nSeries      int
	stopGC       func()
	observers    []writeObserver // copy-on-write: a write walks the slice it read under mu after unlocking
	nextObsID    int
	keyBuf       []byte // Write's canonical-key scratch
	// free holds swept series' entries, point capacity kept, for Write to
	// reuse. SweepNow recycles from each measurement no more entries than
	// it keeps live, so the list never outgrows the live series count.
	free []*seriesEntry
	// spare[c] holds point buffers of capacity 1<<c that no series uses
	// (see grow); their total capacity is at most the live series'.
	spare [][][]Point
	chunk []seriesEntry // fresh entries, carved from chunks of 64
}

// measurement groups the series of one measurement name. entries is kept
// sorted by canonical tag key so reads are deterministic without sorting
// per query; series creation (rare relative to writes) pays the insertion.
type measurementIndex struct {
	byKey   map[string]*seriesEntry
	entries []*seriesEntry
}

type seriesEntry struct {
	key    string  // canonical tags
	tags   Tags    // cloned from the first writer's map, immutable afterwards
	points []Point // time-ordered
}

// search returns the index of the first of pts at or after the instant
// ns; pts is time-ordered.
func search(pts []Point, ns int64) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pts[m].Nanos < ns {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Option configures the DB.
type Option func(*DB)

// WithRetention overrides the retention window.
func WithRetention(d time.Duration) Option {
	return func(db *DB) { db.retention = d }
}

// WithGCInterval overrides the series garbage-collection period; a
// non-positive value disables the background sweep (SweepNow still works).
func WithGCInterval(d time.Duration) Option {
	return func(db *DB) { db.gcInterval = d }
}

// New creates an empty database and starts its retention sweep on the
// given clock. Call Close to stop the sweep.
func New(clk clock.Clock, opts ...Option) *DB {
	db := &DB{
		clk:          clk,
		retention:    DefaultRetention,
		gcInterval:   DefaultGCInterval,
		measurements: make(map[string]*measurementIndex),
	}
	for _, o := range opts {
		o(db)
	}
	if db.gcInterval > 0 {
		db.stopGC = clock.Periodic(clk, db.gcInterval, func() { db.SweepNow() })
	}
	return db
}

// Close stops the background retention sweep. The database remains
// readable and writable.
func (db *DB) Close() {
	db.mu.Lock()
	stop := db.stopGC
	db.stopGC = nil
	db.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Now exposes the database clock; the query engine evaluates now()
// against it.
func (db *DB) Now() time.Time { return db.clk.Now() }

// Retention returns the retention window. Consumers computing their own
// sliding windows (e.g. the streaming window-max aggregator) must keep
// them within it: reads clamp to the retention cutoff, so a longer
// window would observe points the database no longer serves.
func (db *DB) Retention() time.Duration { return db.retention }

// OnWrite registers a write-path observer: every Write (and WriteNow)
// invokes fn after the point is stored, on the writing goroutine, with
// the database lock released — the hook streaming aggregators build on to
// stay continuously current without polling. Observers run in
// registration order and receive the series' stored tag set (see
// WriteObserver). It returns an unsubscribe function; a write that read
// the observer list before an unsubscribe may still deliver to fn once.
// fn must not write to the database; it may unsubscribe, itself included.
func (db *DB) OnWrite(fn WriteObserver) (unsubscribe func()) {
	db.mu.Lock()
	defer db.mu.Unlock()
	id := db.nextObsID
	db.nextObsID++
	// Clip so the append copies: writes in flight keep walking the old slice.
	db.observers = append(slices.Clip(db.observers), writeObserver{id: id, fn: fn})
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		i := slices.IndexFunc(db.observers, func(o writeObserver) bool { return o.id == id })
		if i >= 0 {
			db.observers = slices.Delete(slices.Clone(db.observers), i, i+1)
		}
	}
}

// Write appends a sample to the series identified by measurement and
// tags, stamped at time t. Out-of-order writes are tolerated: the point
// is inserted at its time-ordered position. tags is only read, and only
// until Write returns: the key and the tag clone are allocated on a
// series' first write, and a write to an existing series allocates nothing
// unless its point buffer must grow and no spare of the next class is left.
func (db *DB) Write(measurement string, tags Tags, value float64, t time.Time) {
	db.write(measurement, tags, value, t, db.clk.Now())
}

// WriteNow appends a sample stamped with the database clock.
func (db *DB) WriteNow(measurement string, tags Tags, value float64) {
	now := db.clk.Now()
	db.write(measurement, tags, value, now, now)
}

// write is Write with now, the one clock reading the write prunes
// against.
func (db *DB) write(measurement string, tags Tags, value float64, t, now time.Time) {
	ns, cutoff := UnixNanos(t), db.cutoff(now)
	db.mu.Lock()
	db.keyBuf = appendCanonical(db.keyBuf[:0], tags)
	m, ok := db.measurements[measurement]
	if !ok {
		m = &measurementIndex{byKey: make(map[string]*seriesEntry)}
		db.measurements[measurement] = m
	}
	e, ok := m.byKey[string(db.keyBuf)] // no string is built for a lookup
	if !ok {
		key := string(db.keyBuf)
		if n := len(db.free); n > 0 {
			e, db.free = db.free[n-1], db.free[:n-1]
		} else {
			if len(db.chunk) == 0 {
				db.chunk = make([]seriesEntry, 64)
			}
			e, db.chunk = &db.chunk[0], db.chunk[1:]
		}
		e.key, e.tags = key, tags.Clone()
		m.byKey[key] = e
		i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].key >= key })
		m.entries = append(m.entries, nil)
		copy(m.entries[i+1:], m.entries[i:])
		m.entries[i] = e
		db.nSeries++
	}
	if len(e.points) == cap(e.points) {
		e.points = db.grow(e.points)
	}
	if n := len(e.points); n == 0 || ns >= e.points[n-1].Nanos {
		e.points = append(e.points, Point{Nanos: ns, Value: value})
	} else {
		i := search(e.points, ns+1) // after its equals; ns < the last, so no overflow
		e.points = append(e.points, Point{})
		copy(e.points[i+1:], e.points[i:])
		e.points[i] = Point{Nanos: ns, Value: value}
	}
	if i := search(e.points, cutoff); i > 0 { // the expired run is a prefix
		e.points = append(e.points[:0], e.points[i:]...)
	}
	observers, stored := db.observers, e.tags
	db.mu.Unlock()
	for _, o := range observers {
		o.fn(measurement, stored, value, t)
	}
}

// grow returns pts moved into a buffer of twice its capacity (of one
// point when it has none), taken from that class's spare list when the
// list holds one, and puts pts' own buffer on the spare list of its class.
// The spares' capacity grows by no more than the live series' does, so a
// bound SweepNow left holds until the next sweep.
func (db *DB) grow(pts []Point) []Point {
	c := 0
	if cap(pts) > 0 {
		c = bits.TrailingZeros(uint(cap(pts))) + 1
	}
	var next []Point
	if c < len(db.spare) && len(db.spare[c]) > 0 {
		list := db.spare[c]
		next = list[len(list)-1]
		list[len(list)-1] = nil
		db.spare[c] = list[:len(list)-1]
	} else {
		next = make([]Point, 0, 1<<c)
	}
	next = append(next, pts...)
	db.putSpare(pts)
	return next
}

// putSpare files a buffer no series uses any more on the spare list of
// its class.
func (db *DB) putSpare(pts []Point) {
	if cap(pts) == 0 {
		return
	}
	c := bits.TrailingZeros(uint(cap(pts)))
	for len(db.spare) <= c {
		db.spare = append(db.spare, nil)
	}
	db.spare[c] = append(db.spare[c], pts[:0])
}

// release files a dropped entry's buffer as a spare and clears the entry:
// its chunk would otherwise keep the key, the tags and the buffer alive.
func (db *DB) release(e *seriesEntry) {
	db.putSpare(e.points)
	*e = seriesEntry{}
}

// trimSpares drops spare buffers, largest class first, until their total
// capacity is at most live. The small classes every new series grows
// through are the last to go.
func (db *DB) trimSpares(live int) {
	spare := 0
	for c, list := range db.spare {
		spare += len(list) << c
	}
	for c := len(db.spare) - 1; c >= 0 && spare > live; c-- {
		list := db.spare[c]
		for len(list) > 0 && spare > live {
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			spare -= 1 << c
		}
		db.spare[c] = list
	}
}

// cutoff is the oldest instant retention keeps at now: a point before it
// has expired.
func (db *DB) cutoff(now time.Time) int64 { return UnixNanos(now.Add(-db.retention)) }

// window returns the in-place sub-slice of e's points in [from, to].
// math.MaxInt64 leaves to unbounded.
func (e *seriesEntry) window(from, to int64) []Point {
	pts := e.points
	lo, hi := search(pts, from), len(pts)
	if to < math.MaxInt64 {
		hi = search(pts, to+1)
	}
	if lo >= hi {
		return nil
	}
	return pts[lo:hi]
}

// Scan visits, in place and in canonical series order, every series of
// the measurement holding at least one point in [from, to]. A zero from
// or to leaves that bound open; expired points are never visited. fn
// receives the series' stored tag set — immutable, so it may be kept but
// never modified — and the time-ordered window slice, which it must not
// retain past its return; returning false stops the scan. The callback
// runs under the database lock and must not call back into the DB.
func (db *DB) Scan(measurement string, from, to time.Time, fn func(tags Tags, points []Point) bool) {
	lo, hi := db.cutoff(db.clk.Now()), int64(math.MaxInt64)
	if !from.IsZero() {
		lo = max(lo, UnixNanos(from))
	}
	if !to.IsZero() {
		hi = UnixNanos(to)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.measurements[measurement]
	if !ok {
		return
	}
	for _, e := range m.entries {
		if pts := e.window(lo, hi); len(pts) > 0 {
			if !fn(e.tags, pts) {
				return
			}
		}
	}
}

// Series returns copies of every live series in the measurement, ordered
// deterministically by canonical tags. Expired points are excluded even
// if no write has pruned them yet.
func (db *DB) Series(measurement string) []SeriesData {
	cutoff := db.cutoff(db.clk.Now())
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.measurements[measurement]
	if !ok {
		return nil
	}
	out := make([]SeriesData, 0, len(m.entries))
	for _, e := range m.entries {
		pts := e.window(cutoff, math.MaxInt64)
		if len(pts) == 0 {
			continue
		}
		cp := make([]Point, len(pts))
		copy(cp, pts)
		out = append(out, SeriesData{
			Measurement: measurement,
			Tags:        e.tags.Clone(),
			Points:      cp,
		})
	}
	return out
}

// Measurements lists the distinct measurement names, sorted.
func (db *DB) Measurements() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.measurements))
	for name := range db.measurements {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SeriesCount returns the number of live series (for monitoring tests).
func (db *DB) SeriesCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.nSeries
}

// SweepNow garbage-collects every series whose newest point has aged out
// of retention — the fate of series belonging to terminated pods, which
// no write will ever prune again. It returns the number of series
// deleted, and trims the spare point buffers back to the live series'
// capacity. The background sweep calls this every GC interval.
func (db *DB) SweepNow() int {
	cutoff := db.cutoff(db.clk.Now())
	db.mu.Lock()
	defer db.mu.Unlock()
	deleted, live := 0, 0
	for name, m := range db.measurements {
		// Partition in place: live entries to the front in their order,
		// swept ones behind them.
		kept := 0
		for i, e := range m.entries {
			if n := len(e.points); n > 0 && e.points[n-1].Nanos >= cutoff {
				m.entries[kept], m.entries[i] = e, m.entries[kept]
				kept++
				live += cap(e.points)
			}
		}
		for i, e := range m.entries[kept:] {
			delete(m.byKey, e.key)
			if i < kept { // recycle no more than the measurement keeps live
				// Truncated, not cleared: a point holds no pointer.
				e.key, e.tags, e.points = "", nil, e.points[:0]
				db.free = append(db.free, e)
			} else {
				db.release(e)
			}
		}
		deleted += len(m.entries) - kept
		clear(m.entries[kept:])
		m.entries = m.entries[:kept]
		if kept == 0 {
			delete(db.measurements, name)
		}
	}
	db.nSeries -= deleted
	if len(db.free) > db.nSeries { // entries no write took since an earlier sweep
		for _, e := range db.free[db.nSeries:] {
			db.release(e)
		}
		clear(db.free[db.nSeries:])
		db.free = db.free[:db.nSeries]
	}
	db.trimSpares(live)
	return deleted
}
