package influxql

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// refSample is the unit of the reference executor below: one tagged,
// timestamped value, exactly as the pre-streaming executor materialised
// them.
type refSample struct {
	tags  tsdb.Tags
	time  time.Time
	field string
	value float64
}

// refRun is the old materializing executor, kept verbatim as the
// behavioural oracle: flatten every point of every series into one
// slice, filter, then group with per-group value slices. The streaming
// executor must be observationally identical to it.
func refRun(db *tsdb.DB, q *Query) (Result, error) {
	var samples []refSample
	if q.Source.Sub != nil {
		inner, err := refRun(db, q.Source.Sub)
		if err != nil {
			return Result{}, err
		}
		now := db.Now()
		for _, row := range inner.Rows {
			samples = append(samples, refSample{
				tags:  tsdb.Tags(row.Tags).Clone(),
				time:  now,
				field: row.Field,
				value: row.Value,
			})
		}
	} else {
		for _, s := range db.Series(q.Source.Measurement) {
			for _, p := range s.Points {
				samples = append(samples, refSample{tags: s.Tags, time: time.Unix(0, p.Nanos), field: "value", value: p.Value})
			}
		}
	}

	now := db.Now()
	kept := samples[:0]
	for _, s := range samples {
		keep := true
		for _, c := range q.Where {
			ok, err := refEvalCondition(c, s, now)
			if err != nil {
				return Result{}, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			kept = append(kept, s)
		}
	}

	type group struct {
		tags   tsdb.Tags
		values []float64
		last   refSample
	}
	groups := make(map[string]*group)
	for _, s := range kept {
		if s.field != q.Field.Arg {
			return Result{}, fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, q.Field.Arg, s.field)
		}
		key := groupKey(q.GroupBy, s.tags)
		g, ok := groups[key]
		if !ok {
			g = &group{tags: projectTags(q.GroupBy, s.tags)}
			groups[key] = g
		}
		g.values = append(g.values, s.value)
		if s.time.After(g.last.time) || len(g.values) == 1 {
			g.last = s
		}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := Result{Rows: make([]Row, 0, len(keys))}
	for _, k := range keys {
		g := groups[k]
		v, err := refFold(q.Field.Func, g.values, g.last.value)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, Row{Tags: g.tags, Field: q.Field.OutName(), Value: v})
	}
	return res, nil
}

// groupKey and projectTags are the executor's former per-series group
// identity — a rendered "k=v\x00k=v" string and a projected tag map —
// kept here as part of the oracle: sorting the rendered keys defines the
// row order the hashed aggregator must reproduce.
func groupKey(groupBy []string, tags tsdb.Tags) string {
	if len(groupBy) == 0 {
		return ""
	}
	parts := make([]string, 0, len(groupBy))
	for _, k := range groupBy {
		parts = append(parts, k+"="+tags[k])
	}
	return strings.Join(parts, "\x00")
}

func projectTags(groupBy []string, tags tsdb.Tags) tsdb.Tags {
	out := make(tsdb.Tags, len(groupBy))
	for _, k := range groupBy {
		out[k] = tags[k]
	}
	return out
}

func refEvalCondition(c Condition, s refSample, now time.Time) (bool, error) {
	switch {
	case c.IsTime:
		// Compared as time.Time, not through the executor's integer
		// comparison, so a bug the two shared would not pass unseen.
		threshold := now.Add(-c.Offset)
		switch c.Op {
		case OpGte:
			return !s.time.Before(threshold), nil
		case OpGt:
			return s.time.After(threshold), nil
		case OpLte:
			return !s.time.After(threshold), nil
		case OpLt:
			return s.time.Before(threshold), nil
		case OpEq:
			return s.time.Equal(threshold), nil
		case OpNeq:
			return !s.time.Equal(threshold), nil
		default:
			return false, fmt.Errorf("influxql: unsupported time operator %q", c.Op)
		}
	case c.IsTag:
		v := s.tags[c.Subject]
		if c.Op == OpEq {
			return v == c.Str, nil
		}
		return v != c.Str, nil
	default:
		if c.Subject != s.field {
			return false, fmt.Errorf("%w: %q (source provides %q)", ErrUnknownField, c.Subject, s.field)
		}
		return compareFloat(s.value, c.Op, c.Number)
	}
}

func refFold(fn AggFunc, values []float64, last float64) (float64, error) {
	if len(values) == 0 {
		return 0, nil
	}
	switch fn {
	case AggSum:
		var sum float64
		for _, v := range values {
			sum += v
		}
		return sum, nil
	case AggMax:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case AggMin:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case AggMean:
		var sum float64
		for _, v := range values {
			sum += v
		}
		return sum / float64(len(values)), nil
	case AggCount:
		return float64(len(values)), nil
	case AggLast:
		return last, nil
	default:
		return 0, fmt.Errorf("influxql: unsupported aggregation %q", fn)
	}
}

// resultsEqual requires the same rows in the same order, every value
// identical bit for bit.
func resultsEqual(a, b Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Field != rb.Field || math.Float64bits(ra.Value) != math.Float64bits(rb.Value) ||
			ra.Tags == nil || len(ra.Tags) != len(rb.Tags) {
			return false
		}
		for k, v := range ra.Tags {
			if got, ok := rb.Tags[k]; !ok || got != v {
				return false
			}
		}
	}
	return true
}

// Tag values the generator draws from: values that prefix one another,
// the empty value, values carrying the bytes a rendered key would delimit
// with; missingTag leaves the key out of the series altogether.
const missingTag = "\xff"

var equivTags = []struct {
	key    string
	values []string
}{
	{"pod_name", []string{"a", "ab", "abc", "b", "", "p=1", "p,2", "p=1,nodename=n0", missingTag}},
	{"nodename", []string{"n0", "n1", "n", "", "n=0,", missingTag}},
	{"zone", []string{"z", missingTag, missingTag}},
}

// TestStreamingMatchesMaterializingExecutor drives randomized databases
// and queries through both executors and requires identical results: the
// same rows in the same order, every float equal bit for bit. Values are
// drawn from equivValues, so a SUM or MEAN folded in another order than
// the oracle's comes out different, not only a LAST. The second pass
// narrows the group hash to two bits, so every lookup walks a
// collision chain and only the value-by-value comparison tells groups
// apart.
func TestStreamingMatchesMaterializingExecutor(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 3} {
		t.Run(fmt.Sprintf("hashmask=%#x", mask), func(t *testing.T) {
			defer func(old uint64) { groupHashMask = old }(groupHashMask)
			groupHashMask = mask
			testStreamingMatchesOracle(t)
		})
	}
}

// TestSubqueryFoldsInInnerRowOrder pins the order an outer group folds
// its rows in: the subquery's row order (pod_name, then nodename), not
// the scan's series order (nodename, then pod_name). The three rows sum
// to 1 in row order, (1e16 + -1e16) + 1, and to 0 in series order,
// where 1 + 1e16 rounds back to 1e16.
func TestSubqueryFoldsInInnerRowOrder(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0))
	for _, s := range []struct {
		node, pod string
		v         float64
	}{{"n0", "c", 1}, {"n1", "a", 1e16}, {"n2", "b", -1e16}} {
		db.WriteNow("m", tsdb.Tags{"nodename": s.node, "pod_name": s.pod}, s.v)
	}
	q := mustParse(t, `SELECT SUM(v) AS total FROM (SELECT MAX(value) AS v FROM "m" GROUP BY pod_name, nodename)`)
	if _, err := matchOracle(db, q); err != nil {
		t.Fatal(err)
	}
	if res, err := Run(db, q); err != nil || len(res.Rows) != 1 || res.Rows[0].Value != 1 {
		t.Fatalf("got %+v, %v; want one row of 1", res.Rows, err)
	}
}

// failingQueries each find an unknown field after the scan has begun:
// the first at a point past its value filter, the second once the
// subquery's aggregator is full, at the first inner row.
var failingQueries = []string{
	`SELECT SUM(value) FROM "m" WHERE value > 3 AND w > 1 GROUP BY pod_name`,
	`SELECT SUM(w) AS total FROM (SELECT MAX(value) AS v FROM "m" GROUP BY pod_name, nodename) GROUP BY nodename`,
}

// testStreamingMatchesOracle runs every trial's query through the
// aggregator pool back to back with queries of other shapes, so that a
// run inherits storage an earlier run grew: its own query, an earlier
// trial's query with another GROUP BY arity or subquery shape, its own
// again, a query that fails mid-scan, and its own once more. Every result
// must equal the oracle's, and every aggregator the pool hands back must
// hold nothing an earlier run stored.
func testStreamingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var earlier []*Query
	failed := 0
	for trial := 0; trial < 300; trial++ {
		db := randomDB(rng)
		q := mustParse(t, randomQuery(rng))
		seq := []*Query{q}
		if prev := otherShape(rng, earlier, q); prev != nil {
			seq = append(seq, prev)
		}
		fail := mustParse(t, failingQueries[rng.Intn(len(failingQueries))])
		seq = append(seq, q, fail, q)
		for i, q := range seq {
			queryErr, err := matchOracle(db, q)
			if err != nil {
				t.Fatalf("trial %d, run %d of %d: %v", trial, i+1, len(seq), err)
			}
			if q == fail && queryErr != nil {
				failed++
			}
		}
		// The last run released its outer and subquery aggregators.
		released := []*aggregator{aggregators.Get().(*aggregator), aggregators.Get().(*aggregator)}
		for _, a := range released {
			if err := checkReleased(a); err != nil {
				t.Fatalf("trial %d: released aggregator: %v", trial, err)
			}
			aggregators.Put(a)
		}
		earlier = append(earlier, q)
	}
	if failed == 0 {
		t.Fatal("no failing query failed: the error paths went unexercised")
	}
}

// TestRunConcurrentMatchesSerialProperty runs random queries against one
// database from 8 goroutines at once, all drawing aggregators from the
// one pool, and requires every result to equal the serial result.
func TestRunConcurrentMatchesSerialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng)
	queries := []*Query{mustParse(t, failingQueries[0]), mustParse(t, failingQueries[1])}
	for len(queries) < 40 {
		queries = append(queries, mustParse(t, randomQuery(rng)))
	}
	type outcome struct {
		res Result
		err error
	}
	serial := make([]outcome, len(queries))
	for i, q := range queries {
		serial[i].res, serial[i].err = Run(db, q)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 100 {
				i := rng.Intn(len(queries))
				got, err := Run(db, queries[i])
				want := serial[i]
				if fmt.Sprint(err) != fmt.Sprint(want.err) || err == nil && !resultsEqual(got, want.res) {
					t.Errorf("worker %d, query %q: got %+v, %v; serial %+v, %v", w, queries[i], got.Rows, err, want.res.Rows, want.err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// matchOracle runs q through both executors. It returns the query's own
// error, and reports any difference in the rows or in the error as err.
func matchOracle(db *tsdb.DB, q *Query) (queryErr, err error) {
	got, gotErr := Run(db, q)
	want, wantErr := refRun(db, q)
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrUnknownField) != errors.Is(wantErr, ErrUnknownField) {
		return gotErr, fmt.Errorf("error mismatch: streaming=%v reference=%v (query %q)", gotErr, wantErr, q)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return gotErr, fmt.Errorf("error text: streaming=%q reference=%q (query %q)", gotErr, wantErr, q)
		}
		return gotErr, nil
	}
	if !resultsEqual(got, want) {
		return nil, fmt.Errorf("query %q\nstreaming: %+v\nreference: %+v", q, got.Rows, want.Rows)
	}
	return nil, nil
}

// checkReleased reports anything a released aggregator still holds:
// a group, an entry of the row list (whether order or a subquery's fold
// filled it), a hash bucket, a string anywhere in the capacity of the
// slab or the probe, or the query.
func checkReleased(a *aggregator) error {
	switch {
	case a.q != nil:
		return fmt.Errorf("holds query %q", a.q)
	case len(a.groups) != 0 || len(a.vals) != 0 || len(a.rows) != 0:
		return fmt.Errorf("%d groups, %d values, %d rows left", len(a.groups), len(a.vals), len(a.rows))
	case slices.ContainsFunc(a.heads, func(h int32) bool { return h != 0 }):
		return fmt.Errorf("hash buckets not zeroed: %v", a.heads)
	case slices.ContainsFunc(a.vals[:cap(a.vals)], func(v string) bool { return v != "" }):
		return fmt.Errorf("slab keeps values %q", a.vals[:cap(a.vals)])
	case slices.ContainsFunc(a.probe[:cap(a.probe)], func(v string) bool { return v != "" }):
		return fmt.Errorf("probe keeps values %q", a.probe[:cap(a.probe)])
	}
	return nil
}

func mustParse(t *testing.T, query string) *Query {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return q
}

// shape is what decides how an aggregator's storage is laid out: the
// GROUP BY arity, and the subquery's (-1 without one).
func shape(q *Query) [2]int {
	inner := -1
	if q.Source.Sub != nil {
		inner = len(q.Source.Sub.GroupBy)
	}
	return [2]int{len(q.GroupBy), inner}
}

// otherShape picks an earlier query whose shape differs from q's, or nil.
func otherShape(rng *rand.Rand, earlier []*Query, q *Query) *Query {
	if len(earlier) == 0 {
		return nil
	}
	start := rng.Intn(len(earlier))
	for i := range earlier {
		if e := earlier[(start+i)%len(earlier)]; shape(e) != shape(q) {
			return e
		}
	}
	return nil
}

// equivValues are the values randomDB writes: zeros, which a value <> 0
// filter drops, and floats whose sum depends on the order they are added
// in (0.1 + 0.2 + 3.3 is not 3.3 + 0.2 + 0.1, and 1e16 absorbs a small
// addend that -1e16 then leaves visible or not).
var equivValues = []float64{0, 1, 2, 3, 0.1, 0.2, 3.3, 1e16, -1e16}

// randomDB writes up to 300 points of measurement "m" over two minutes,
// tagged from equivTags, valued from equivValues.
func randomDB(rng *rand.Rand) *tsdb.DB {
	clk := clock.NewSim()
	db := tsdb.New(clk, tsdb.WithGCInterval(0))
	start := clk.Now()
	clk.Advance(2 * time.Minute)
	nPoints := rng.Intn(300)
	for i := 0; i < nPoints; i++ {
		tags := tsdb.Tags{}
		for _, tag := range equivTags {
			if v := tag.values[rng.Intn(len(tag.values))]; v != missingTag {
				tags[tag.key] = v
			}
		}
		at := start.Add(time.Duration(rng.Int63n(int64(2 * time.Minute))))
		db.Write("m", tags, equivValues[rng.Intn(len(equivValues))], at)
	}
	return db
}

// randomQuery draws a query over "m": an aggregation with value, tag and
// time filters and a GROUP BY, half the time wrapped in an outer query.
func randomQuery(rng *rand.Rand) string {
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	aggs := []string{"SUM", "MAX", "MIN", "MEAN", "COUNT", "LAST"}
	window := time.Duration(5+rng.Intn(115)) * time.Second
	inner := fmt.Sprintf(`SELECT %s(value) AS v FROM "m"`, pick(aggs))
	var conds []string
	if rng.Intn(2) == 0 {
		conds = append(conds, "value <> 0")
	}
	if rng.Intn(4) == 0 {
		conds = append(conds, fmt.Sprintf("nodename %s '%s'", pick([]string{"=", "<>"}), pick(equivTags[1].values[:5])))
	}
	conds = append(conds, fmt.Sprintf("time >= now() - %ds", int(window.Seconds())))
	inner += " WHERE " + strings.Join(conds, " AND ")
	inner += pick([]string{"", " GROUP BY pod_name", " GROUP BY pod_name, nodename",
		" GROUP BY nodename, pod_name", " GROUP BY zone, pod_name", " GROUP BY pod_name, pod_name"})
	if rng.Intn(2) != 0 {
		return inner
	}
	// The outer query may group by, and filter on, a tag the subquery did
	// not group by (it reads ""), and filter on the inner value and on the
	// rows' implicit now() timestamp.
	var outer []string
	if rng.Intn(3) == 0 {
		outer = append(outer, fmt.Sprintf("%s %s '%s'", pick([]string{"nodename", "pod_name"}),
			pick([]string{"=", "<>"}), pick([]string{"n0", "a", "ab", "", "p=1"})))
	}
	if rng.Intn(3) == 0 {
		outer = append(outer, fmt.Sprintf("%s %s %d", pick([]string{"v", "v", "v", "w"}),
			pick([]string{">", ">=", "<", "<>", "="}), rng.Intn(8)))
	}
	if rng.Intn(3) == 0 {
		outer = append(outer, pick([]string{"time >= now() - 10s", "time < now() - 1s", "time = now()", "time <> now()"}))
	}
	query := fmt.Sprintf(`SELECT %s(%s) AS total FROM (%s)`, pick(aggs), pick([]string{"v", "v", "v", "v", "value"}), inner)
	if len(outer) > 0 {
		query += " WHERE " + strings.Join(outer, " AND ")
	}
	return query + pick([]string{"", " GROUP BY nodename", " GROUP BY nodename", " GROUP BY zone", " GROUP BY nodename, pod_name"})
}
