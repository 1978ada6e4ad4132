package influxql

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
				samples = append(samples, refSample{tags: s.Tags, time: p.Time, field: "value", value: p.Value})
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
		return compareTime(s.time, c.Op, now.Add(-c.Offset))
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
// small integers so float folds are exact in either evaluation order. The
// second pass narrows the group hash to two bits, so every lookup walks a
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

func testStreamingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	aggs := []string{"SUM", "MAX", "MIN", "MEAN", "COUNT", "LAST"}
	for trial := 0; trial < 300; trial++ {
		clk := clock.NewSim()
		db := tsdb.New(clk, tsdb.WithGCInterval(0))
		start := clk.Now()
		clk.Advance(2 * time.Minute)

		nPoints := rng.Intn(300)
		for i := 0; i < nPoints; i++ {
			tags := tsdb.Tags{}
			for _, tag := range equivTags {
				if v := pick(tag.values); v != missingTag {
					tags[tag.key] = v
				}
			}
			at := start.Add(time.Duration(rng.Int63n(int64(2 * time.Minute))))
			db.Write("m", tags, float64(rng.Intn(8)), at) // zeros included
		}

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
		query := inner
		if rng.Intn(2) == 0 {
			// The outer query may group by, and filter on, a tag the
			// subquery did not group by (it reads ""), and filter on the
			// inner value and on the rows' implicit now() timestamp.
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
			query = fmt.Sprintf(`SELECT %s(%s) AS total FROM (%s)`, pick(aggs), pick([]string{"v", "v", "v", "v", "value"}), inner)
			if len(outer) > 0 {
				query += " WHERE " + strings.Join(outer, " AND ")
			}
			query += pick([]string{"", " GROUP BY nodename", " GROUP BY nodename", " GROUP BY zone", " GROUP BY nodename, pod_name"})
		}

		q, err := Parse(query)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, query, err)
		}
		got, gotErr := Run(db, q)
		want, wantErr := refRun(db, q)
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrUnknownField) != errors.Is(wantErr, ErrUnknownField) {
			t.Fatalf("trial %d: error mismatch: streaming=%v reference=%v (query %q)",
				trial, gotErr, wantErr, query)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: error text: streaming=%q reference=%q (query %q)", trial, gotErr, wantErr, query)
			}
			continue
		}
		if !resultsEqual(got, want) {
			t.Fatalf("trial %d: query %q\nstreaming: %+v\nreference: %+v",
				trial, query, got.Rows, want.Rows)
		}
	}
}
