package influxql

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// ErrUnknownField is returned when the aggregation argument does not
// match the source's field name.
var ErrUnknownField = errors.New("influxql: unknown field")

// Row is one output row of a query: the grouping tags and the aggregated
// value under the projected column name.
type Row struct {
	Tags  map[string]string
	Field string
	Value float64
}

// Result is the ordered output of a query execution.
type Result struct {
	Rows []Row
}

// ValueByTag returns a map from the given tag's value to the row value —
// convenient for per-node lookups ("GROUP BY nodename").
func (r Result) ValueByTag(tag string) map[string]float64 {
	out := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		out[row.Tags[tag]] = row.Value
	}
	return out
}

// Execute parses and runs a query against the database.
func Execute(db *tsdb.DB, query string) (Result, error) {
	q, err := Parse(query)
	if err != nil {
		return Result{}, err
	}
	return Run(db, q)
}

// Run executes a parsed query against the database.
//
// Execution is streaming: raw-measurement sources are read through the
// tsdb windowed scan with the time predicates pushed down as the scan
// bounds, tag predicates evaluated once per series, and the remaining
// point predicates applied as points flow into per-group running
// aggregates. A subquery's groups are folded straight into the outer
// aggregator, each outer group folding its rows in inner row order; no
// intermediate result exists.
//
// A query allocates little beyond its answer: the row slice, one tag map
// per row, and a scan's list of the predicates its window did not absorb.
// Groups live in one slice and their GROUP BY values in one slab,
// found through a hash of the values; those two slices, the hash index,
// the probe tuple and the row list belong to an aggregator taken from a
// pool for the run and given back when it returns, errors included (a
// subquery takes a second one, given back once its groups are folded
// into the outer). What the next run inherits is capacity only, never a
// value: the release empties the group slice, the slab and the row
// list, zeroes every hash bucket, clears every string the slab and the
// probe held and drops the query. A run therefore starts from the state
// a fresh aggregator would, and the result shares no memory with the
// aggregator, so no run can observe another's groups, and the pool keeps
// no swept series' tag values alive.
func Run(db *tsdb.DB, q *Query) (Result, error) {
	agg := newAggregator(q)
	defer agg.release()
	if err := agg.run(db); err != nil {
		return Result{}, err
	}
	return agg.result()
}

// run folds the query's source into a.
func (a *aggregator) run(db *tsdb.DB) error {
	if a.q.Source.Sub != nil {
		return runSub(db, a.q, a)
	}
	return runScan(db, a.q, a)
}

// runSub evaluates a subquery source: every inner group becomes one
// sample stamped at now(), filtered by the outer WHERE and folded into
// agg. A tag the subquery did not group by reads as "".
//
// Each outer group folds its samples in inner row order, the order a
// materialized subquery returns its rows in, so every float sum is the
// one that subquery gives; the outer groups' states are independent and
// result() orders them itself. The first pass walks the inner groups in
// creation order (the scan's series order), filtering each, resolving
// its outer group and adding it to the inner aggregator's row list; the
// second sorts that list by (outer group, inner row order) and folds it.
// On Listing 1 the series order already is that order, so the sort only
// confirms it.
func runSub(db *tsdb.DB, q *Query, agg *aggregator) error {
	sub := q.Source.Sub
	inner := newAggregator(sub)
	defer inner.release()
	if err := inner.run(db); err != nil {
		return err
	}
	now := db.Now()
	nowNanos := tsdb.UnixNanos(now)
	field := sub.Field.OutName()
	tag := func(g int32, key string) string {
		if i := slices.Index(sub.GroupBy, key); i >= 0 {
			return inner.values(g)[i]
		}
		return ""
	}
	inner.rows = slices.Grow(inner.rows, len(inner.groups))
	for g := range int32(len(inner.groups)) {
		v, err := inner.groups[g].fold(sub.Field.Func)
		if err != nil {
			return err
		}
		keep := true
		for _, c := range q.Where {
			switch {
			case c.IsTime:
				keep, err = compareNanos(nowNanos, c.Op, tsdb.UnixNanos(now.Add(-c.Offset)))
			case c.IsTag:
				keep = (c.Op == OpEq) == (tag(g, c.Subject) == c.Str)
			case c.Subject != field:
				err = fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, c.Subject, field)
			default:
				keep, err = compareFloat(v, c.Op, c.Number)
			}
			if err != nil {
				return err
			}
			if !keep {
				break
			}
		}
		if !keep {
			continue
		}
		if field != q.Field.Arg {
			return fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, q.Field.Arg, field)
		}
		for i, k := range q.GroupBy {
			agg.probe[i] = tag(g, k)
		}
		inner.groups[g].outer = agg.group()
		inner.rows = append(inner.rows, g)
	}
	for _, g := range inner.sortRows() {
		v, _ := inner.groups[g].fold(sub.Field.Func) // folded without error above
		agg.groups[inner.groups[g].outer].observe(nowNanos, v)
	}
	return nil
}

// runScan evaluates a raw-measurement source through the tsdb scan.
func runScan(db *tsdb.DB, q *Query, agg *aggregator) error {
	now := db.Now()
	from, to, residual, empty, err := pushdownWindow(q.Where, now)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	var scanErr error
	db.Scan(q.Source.Measurement, from, to, func(tags tsdb.Tags, pts []tsdb.Point) bool {
		for _, c := range residual {
			if !c.IsTag {
				continue
			}
			v := tags[c.Subject]
			if keep := (c.Op == OpEq) == (v == c.Str); !keep {
				return true // next series
			}
		}
		var g *groupState
		for i := range pts {
			p := &pts[i]
			keep := true
			for _, c := range residual {
				switch {
				case c.IsTag:
					// Handled once per series above.
				case c.IsTime:
					ok, err := compareNanos(p.Nanos, c.Op, c.at)
					if err != nil {
						scanErr = err
						return false
					}
					keep = keep && ok
				default:
					if c.Subject != "value" {
						scanErr = fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, c.Subject, "value")
						return false
					}
					ok, err := compareFloat(p.Value, c.Op, c.Number)
					if err != nil {
						scanErr = err
						return false
					}
					keep = keep && ok
				}
				if !keep {
					break
				}
			}
			if !keep {
				continue
			}
			if q.Field.Arg != "value" {
				scanErr = fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, q.Field.Arg, "value")
				return false
			}
			if g == nil {
				// One lookup per series; g stays valid until the next one.
				for i, k := range q.GroupBy {
					agg.probe[i] = tags[k]
				}
				g = &agg.groups[agg.group()]
			}
			g.observe(p.Nanos, p.Value)
		}
		return true
	})
	return scanErr
}

// residualCond is a condition the scan window did not absorb, evaluated
// per series (tag conditions) or per point.
type residualCond struct {
	Condition
	at int64 // time conditions: the threshold now() - Offset, as tsdb.UnixNanos
}

// pushdownWindow folds range-style time conditions into inclusive scan
// bounds [from, to] (zero = unbounded) and returns the conditions that
// still need per-series or per-point evaluation, each time threshold
// computed once. empty reports a provably empty window (from after to).
func pushdownWindow(conds []Condition, now time.Time) (from, to time.Time, residual []residualCond, empty bool, err error) {
	tightenFrom := func(t time.Time) {
		if from.IsZero() || t.After(from) {
			from = t
		}
	}
	tightenTo := func(t time.Time) {
		if to.IsZero() || t.Before(to) {
			to = t
		}
	}
	for _, c := range conds {
		if !c.IsTime {
			residual = append(residual, residualCond{Condition: c})
			continue
		}
		threshold := now.Add(-c.Offset)
		switch c.Op {
		case OpGte:
			tightenFrom(threshold)
		case OpGt:
			tightenFrom(threshold.Add(time.Nanosecond))
		case OpLte:
			tightenTo(threshold)
		case OpLt:
			tightenTo(threshold.Add(-time.Nanosecond))
		case OpEq:
			tightenFrom(threshold)
			tightenTo(threshold)
		case OpNeq:
			residual = append(residual, residualCond{Condition: c, at: tsdb.UnixNanos(threshold)})
		default:
			return from, to, nil, false, fmt.Errorf("influxql: unsupported time operator %q", c.Op)
		}
	}
	if !from.IsZero() && !to.IsZero() && from.After(to) {
		return from, to, nil, true, nil
	}
	return from, to, residual, false, nil
}

// compareNanos compares two instants in Unix nanoseconds.
func compareNanos(t int64, op CompareOp, threshold int64) (bool, error) {
	switch op {
	case OpGte:
		return t >= threshold, nil
	case OpGt:
		return t > threshold, nil
	case OpLte:
		return t <= threshold, nil
	case OpLt:
		return t < threshold, nil
	case OpEq:
		return t == threshold, nil
	case OpNeq:
		return t != threshold, nil
	default:
		return false, fmt.Errorf("influxql: unsupported time operator %q", op)
	}
}

func compareFloat(v float64, op CompareOp, x float64) (bool, error) {
	switch op {
	case OpEq:
		return v == x, nil
	case OpNeq:
		return v != x, nil
	case OpGt:
		return v > x, nil
	case OpGte:
		return v >= x, nil
	case OpLt:
		return v < x, nil
	case OpLte:
		return v <= x, nil
	default:
		return false, fmt.Errorf("influxql: unsupported operator %q", op)
	}
}

// aggregator folds samples into per-group running state so memory stays
// proportional to the number of output rows. Groups sit in one slice in
// creation order and their GROUP BY values in one slab, len(q.GroupBy)
// strings per group; a group is found through a hash of its values, with
// colliding groups chained and told apart value by value. Aggregators are
// pooled: each slice grows from where release left it (see Run).
type aggregator struct {
	q      *Query
	groups []groupState
	vals   []string // group g's values: vals[g*n : (g+1)*n], n = len(q.GroupBy)
	heads  []int32  // hash bucket → 1 + the newest group of its chain; a power of two long
	probe  []string // the value tuple group() looks up, filled by the caller
	rows   []int32  // the row list: the groups in row order (order), or a subquery's rows (runSub)
}

// groupState carries every running statistic any supported aggregation
// needs; fold picks the right one at result time.
type groupState struct {
	hash     uint64
	next     int32 // 1 + the next group of the collision chain, 0 at its end
	outer    int32 // the outer group this group's row feeds while a subquery folds (runSub), else 0
	count    int64
	sum      float64
	max      float64
	min      float64
	last     float64
	lastTime int64 // Unix nanoseconds
}

// groupHashMask narrows the value hash; the tests clear most of its bits
// so that every lookup walks a collision chain.
var groupHashMask = ^uint64(0)

// aggregators holds released aggregators for the next run to take.
var aggregators = sync.Pool{New: func() any { return &aggregator{heads: make([]int32, 8)} }}

// newAggregator takes an empty aggregator from the pool for q.
func newAggregator(q *Query) *aggregator {
	a := aggregators.Get().(*aggregator)
	a.q = q
	if n := len(q.GroupBy); n <= cap(a.probe) {
		a.probe = a.probe[:n]
	} else {
		a.probe = make([]string, n)
	}
	return a
}

// release empties a, keeping its slices' capacity, and returns it to the
// pool. Every string it held is cleared first: the pooled slab must not
// keep a swept series' tag values alive.
func (a *aggregator) release() {
	clear(a.vals)
	clear(a.probe)
	clear(a.heads)
	a.q, a.groups, a.vals, a.rows = nil, a.groups[:0], a.vals[:0], a.rows[:0]
	aggregators.Put(a)
}

// values returns group g's GROUP BY values, in GROUP BY order.
func (a *aggregator) values(g int32) []string {
	n := len(a.q.GroupBy)
	return a.vals[int(g)*n : (int(g)+1)*n]
}

// group resolves (or creates) the group whose values are a.probe and
// returns its index in a.groups.
func (a *aggregator) group() int32 {
	h := uint64(14695981039346656037) // FNV-1a, a boundary byte after each value
	for _, v := range a.probe {
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	h &= groupHashMask
	for g := a.heads[h&uint64(len(a.heads)-1)]; g != 0; g = a.groups[g-1].next {
		if a.groups[g-1].hash == h && slices.Equal(a.values(g-1), a.probe) {
			return g - 1
		}
	}
	if len(a.groups) == len(a.heads) { // keep chains short: double the buckets and relink
		a.heads = make([]int32, 2*len(a.heads))
		for g := range a.groups {
			a.link(int32(g))
		}
	}
	a.groups = append(a.groups, groupState{hash: h})
	a.vals = append(a.vals, a.probe...)
	g := int32(len(a.groups) - 1)
	a.link(g)
	return g
}

// link puts group g at the head of its bucket's chain.
func (a *aggregator) link(g int32) {
	b := &a.heads[a.groups[g].hash&uint64(len(a.heads)-1)]
	a.groups[g].next, *b = *b, g+1
}

// order fills the row list with every group and returns it sorted by
// value tuple — the row order. It is called at most once per run, on the
// empty list release left.
func (a *aggregator) order() []int32 {
	a.rows = slices.Grow(a.rows, len(a.groups))
	for g := range int32(len(a.groups)) {
		a.rows = append(a.rows, g)
	}
	return a.sortRows()
}

// sortRows sorts the row list by outer group, then by value tuple.
// pdqsort finishes an already sorted list in about len(a.rows)
// comparisons.
func (a *aggregator) sortRows() []int32 {
	slices.SortFunc(a.rows, func(x, y int32) int {
		if c := cmp.Compare(a.groups[x].outer, a.groups[y].outer); c != 0 {
			return c
		}
		return slices.Compare(a.values(x), a.values(y))
	})
	return a.rows
}

// observe folds one sample into the running state. The first sample
// seeds LAST; afterwards a strictly later timestamp wins, matching
// InfluxQL's LAST over unordered inputs.
func (g *groupState) observe(t int64, v float64) {
	g.count++
	if g.count == 1 {
		g.sum, g.max, g.min, g.last, g.lastTime = v, v, v, v, t
		return
	}
	g.sum += v
	if v > g.max {
		g.max = v
	}
	if v < g.min {
		g.min = v
	}
	if t > g.lastTime {
		g.last, g.lastTime = v, t
	}
}

// result renders the groups as rows, building the tag map of each row
// only now that it is known to be returned.
func (a *aggregator) result() (Result, error) {
	order := a.order()
	res := Result{Rows: make([]Row, 0, len(order))}
	for _, g := range order {
		v, err := a.groups[g].fold(a.q.Field.Func)
		if err != nil {
			return Result{}, err
		}
		vals := a.values(g)
		tags := make(map[string]string, len(vals))
		for i, k := range a.q.GroupBy {
			tags[k] = vals[i]
		}
		res.Rows = append(res.Rows, Row{Tags: tags, Field: a.q.Field.OutName(), Value: v})
	}
	return res, nil
}

func (g *groupState) fold(fn AggFunc) (float64, error) {
	switch fn {
	case AggSum:
		return g.sum, nil
	case AggMax:
		return g.max, nil
	case AggMin:
		return g.min, nil
	case AggMean:
		return g.sum / float64(g.count), nil
	case AggCount:
		return float64(g.count), nil
	case AggLast:
		return g.last, nil
	default:
		return 0, fmt.Errorf("influxql: unsupported aggregation %q", fn)
	}
}
