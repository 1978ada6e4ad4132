package influxql

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// listing1 is the exact query text from the paper (§V-C, Listing 1).
const listing1 = `SELECT SUM(epc) AS epc FROM
(SELECT MAX(value) AS epc FROM "sgx/epc"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`

func TestParseListing1(t *testing.T) {
	q, err := Parse(listing1)
	if err != nil {
		t.Fatalf("Parse(listing1) = %v", err)
	}
	if q.Field.Func != AggSum || q.Field.Arg != "epc" || q.Field.Alias != "epc" {
		t.Fatalf("outer field = %+v", q.Field)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "nodename" {
		t.Fatalf("outer group by = %v", q.GroupBy)
	}
	sub := q.Source.Sub
	if sub == nil {
		t.Fatal("no subquery parsed")
	}
	if sub.Field.Func != AggMax || sub.Field.Arg != "value" || sub.Field.Alias != "epc" {
		t.Fatalf("inner field = %+v", sub.Field)
	}
	if sub.Source.Measurement != "sgx/epc" {
		t.Fatalf("inner measurement = %q", sub.Source.Measurement)
	}
	if len(sub.Where) != 2 {
		t.Fatalf("inner where = %+v", sub.Where)
	}
	if sub.Where[0].Subject != "value" || sub.Where[0].Op != OpNeq || sub.Where[0].Number != 0 {
		t.Fatalf("value cond = %+v", sub.Where[0])
	}
	if !sub.Where[1].IsTime || sub.Where[1].Op != OpGte || sub.Where[1].Offset != 25*time.Second {
		t.Fatalf("time cond = %+v", sub.Where[1])
	}
	if len(sub.GroupBy) != 2 || sub.GroupBy[0] != "pod_name" || sub.GroupBy[1] != "nodename" {
		t.Fatalf("inner group by = %v", sub.GroupBy)
	}
}

func TestExecuteListing1(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)

	write := func(pod, node string, v float64) {
		db.WriteNow("sgx/epc", tsdb.Tags{"pod_name": pod, "nodename": node}, v)
	}

	// Old samples (outside the 25 s window) that must be ignored.
	write("podA", "sgx-1", 999999)
	clk.Advance(60 * time.Second)

	// Fresh samples: podA oscillates (MAX picks the peak), podB steady,
	// podC on another node, podD reports zero (filtered by value <> 0).
	write("podA", "sgx-1", 100)
	clk.Advance(5 * time.Second)
	write("podA", "sgx-1", 300)
	write("podB", "sgx-1", 50)
	write("podC", "sgx-2", 70)
	write("podD", "sgx-2", 0)
	clk.Advance(5 * time.Second)
	write("podA", "sgx-1", 200)

	res, err := Execute(db, listing1)
	if err != nil {
		t.Fatal(err)
	}
	perNode := res.ValueByTag("nodename")
	if got := perNode["sgx-1"]; got != 350 { // max(podA)=300 + max(podB)=50
		t.Fatalf("sgx-1 = %v, want 350", got)
	}
	if got := perNode["sgx-2"]; got != 70 {
		t.Fatalf("sgx-2 = %v, want 70", got)
	}
	for _, row := range res.Rows {
		if row.Field != "epc" {
			t.Fatalf("row field = %q, want epc", row.Field)
		}
	}
}

func TestSlidingWindowExcludesOldPoints(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{"nodename": "n"}, 500)
	clk.Advance(30 * time.Second)
	db.WriteNow("m", tsdb.Tags{"nodename": "n"}, 10)
	res, err := Execute(db, `SELECT MAX(value) FROM "m" WHERE time >= now() - 25s GROUP BY nodename`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 10 {
		t.Fatalf("rows = %+v, want single 10", res.Rows)
	}
}

func TestAggregations(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	for i, v := range []float64{4, 1, 3, 2} {
		db.Write("m", tsdb.Tags{"k": "g"}, v, clk.Now().Add(time.Duration(i)*time.Second))
	}
	clk.Advance(10 * time.Second)
	cases := []struct {
		query string
		want  float64
	}{
		{`SELECT SUM(value) FROM m`, 10},
		{`SELECT MAX(value) FROM m`, 4},
		{`SELECT MIN(value) FROM m`, 1},
		{`SELECT MEAN(value) FROM m`, 2.5},
		{`SELECT COUNT(value) FROM m`, 4},
		{`SELECT LAST(value) FROM m`, 2},
	}
	for _, tc := range cases {
		res, err := Execute(db, tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Value != tc.want {
			t.Errorf("%s = %+v, want %v", tc.query, res.Rows, tc.want)
		}
	}
}

func TestTagCondition(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{"nodename": "a"}, 1)
	db.WriteNow("m", tsdb.Tags{"nodename": "b"}, 2)
	res, err := Execute(db, `SELECT SUM(value) FROM m WHERE nodename = 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	res, err = Execute(db, `SELECT SUM(value) FROM m WHERE nodename <> 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestEmptyResultOnNoData(t *testing.T) {
	db := tsdb.New(clock.NewSim())
	res, err := Execute(db, `SELECT SUM(value) FROM empty GROUP BY nodename`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %+v, want none", res.Rows)
	}
}

func TestGroupByMissingTagGroupsTogether(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{"pod_name": "a"}, 1)
	db.WriteNow("m", tsdb.Tags{"pod_name": "b"}, 2)
	res, err := Execute(db, `SELECT SUM(value) FROM m GROUP BY nodename`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestUnknownFieldError(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{}, 1)
	if _, err := Execute(db, `SELECT SUM(bogus) FROM m`); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("err = %v, want ErrUnknownField", err)
	}
	if _, err := Execute(db, `SELECT SUM(value) FROM m WHERE bogus > 1`); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("where field err = %v, want ErrUnknownField", err)
	}
}

// badQueries each fail to parse.
var badQueries = []string{
	"",
	"SELECT",
	"FROM m",
	"SELECT SUM(value)",
	"SELECT SUM value FROM m",
	"SELECT BOGUS(value) FROM m",
	`SELECT SUM(value) FROM`,
	`SELECT SUM(value) FROM m WHERE`,
	`SELECT SUM(value) FROM m WHERE value >`,
	`SELECT SUM(value) FROM m WHERE time >= later()`,
	`SELECT SUM(value) FROM m GROUP`,
	`SELECT SUM(value) FROM m GROUP BY`,
	`SELECT SUM(value) FROM m trailing`,
	`SELECT SUM(value) FROM (SELECT SUM(value) FROM m`,
	`SELECT SUM(value) FROM m WHERE nodename > 'a'`,
	`SELECT SUM(value) FROM "unterminated`,
	`SELECT SUM(value) FROM m WHERE value ! 1`,
}

func TestParseErrors(t *testing.T) {
	for _, q := range badQueries {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseDurations(t *testing.T) {
	cases := []struct {
		lit  string
		want time.Duration
	}{
		{"25s", 25 * time.Second},
		{"5m", 5 * time.Minute},
		{"1h", time.Hour},
		{"2d", 48 * time.Hour},
		{"1h30m", 90 * time.Minute},
	}
	for _, tc := range cases {
		q, err := Parse(`SELECT SUM(value) FROM m WHERE time >= now() - ` + tc.lit)
		if err != nil {
			t.Fatalf("%s: %v", tc.lit, err)
		}
		if q.Where[0].Offset != tc.want {
			t.Errorf("duration %s = %v, want %v", tc.lit, q.Where[0].Offset, tc.want)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	rendered := q.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", rendered, err)
	}
	if q2.String() != rendered {
		t.Fatalf("String not stable:\n%s\nvs\n%s", rendered, q2.String())
	}
	if !strings.Contains(rendered, "GROUP BY nodename") {
		t.Fatalf("rendered query missing GROUP BY: %s", rendered)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{"k": "v"}, 5)
	res, err := Execute(db, `select sum(value) from m where value > 0 group by k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 5 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestNowWithoutOffset(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	db.WriteNow("m", tsdb.Tags{}, 1) // stamped exactly at now()
	res, err := Execute(db, `SELECT COUNT(value) FROM m WHERE time <= now()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

// Property: rendering a parsed query and re-parsing it yields an
// identical canonical form, across a grammar-covering set of generated
// queries.
func TestParseRenderRoundTripProperty(t *testing.T) {
	aggs := []string{"SUM", "MAX", "MIN", "MEAN", "COUNT", "LAST"}
	ops := []string{">", ">=", "<", "<=", "=", "<>"}
	durations := []string{"5s", "25s", "2m", "1h"}
	f := func(aggIdx, opIdx, durIdx uint8, alias bool, groupTags uint8, nested bool, threshold int16) bool {
		inner := `SELECT ` + aggs[aggIdx%6] + `(value)`
		if alias {
			inner += ` AS v`
		}
		inner += ` FROM "m/easure"`
		inner += ` WHERE value ` + ops[opIdx%6] + ` ` + strconv.Itoa(int(threshold)) +
			` AND time >= now() - ` + durations[durIdx%4]
		switch groupTags % 3 {
		case 1:
			inner += ` GROUP BY a`
		case 2:
			inner += ` GROUP BY a, b`
		}
		query := inner
		if nested {
			field := "value"
			if alias {
				field = "v"
			}
			query = `SELECT SUM(` + field + `) FROM (` + inner + `) GROUP BY b`
		}
		q1, err := Parse(query)
		if err != nil {
			t.Logf("query %q failed: %v", query, err)
			return false
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Logf("re-parse of %q failed: %v", q1.String(), err)
			return false
		}
		return q1.String() == q2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SUM grouped by a tag equals the ungrouped SUM.
func TestGroupSumConservationProperty(t *testing.T) {
	f := func(values []uint16) bool {
		clk := clock.NewSim()
		db := tsdb.New(clk)
		var want float64
		for i, v := range values {
			tag := string(rune('a' + i%5))
			db.WriteNow("m", tsdb.Tags{"k": tag}, float64(v))
			want += float64(v)
		}
		if len(values) == 0 {
			return true
		}
		grouped, err := Execute(db, `SELECT SUM(value) FROM m GROUP BY k`)
		if err != nil {
			return false
		}
		var total float64
		for _, row := range grouped.Rows {
			total += row.Value
		}
		flat, err := Execute(db, `SELECT SUM(value) FROM m`)
		if err != nil || len(flat.Rows) != 1 {
			return false
		}
		return total == want && flat.Rows[0].Value == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
