// Package influxql implements the subset of the InfluxQL query language
// that the paper's scheduler uses against InfluxDB (§V-C): single-field
// aggregations with sliding time windows, value predicates, tag grouping,
// and one level of subquery — enough for Listing 1 to run verbatim:
//
//	SELECT SUM(epc) AS epc FROM
//	(SELECT MAX(value) AS epc FROM "sgx/epc"
//	 WHERE value <> 0 AND time >= now() - 25s
//	 GROUP BY pod_name, nodename
//	)
//	GROUP BY nodename
package influxql

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// AggFunc is a supported aggregation function.
type AggFunc string

// Supported aggregation functions.
const (
	AggSum   AggFunc = "SUM"
	AggMax   AggFunc = "MAX"
	AggMin   AggFunc = "MIN"
	AggMean  AggFunc = "MEAN"
	AggCount AggFunc = "COUNT"
	AggLast  AggFunc = "LAST"
)

// validAgg reports whether name is a known aggregation.
func validAgg(name string) (AggFunc, bool) {
	switch AggFunc(strings.ToUpper(name)) {
	case AggSum:
		return AggSum, true
	case AggMax:
		return AggMax, true
	case AggMin:
		return AggMin, true
	case AggMean:
		return AggMean, true
	case AggCount:
		return AggCount, true
	case AggLast:
		return AggLast, true
	default:
		return "", false
	}
}

// Field is the single projected column: FUNC(arg) [AS alias].
type Field struct {
	Func  AggFunc
	Arg   string // field name: "value" on raw series, or an inner alias
	Alias string // output name; defaults to Arg
}

// OutName returns the projected column name.
func (f Field) OutName() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Arg
}

// CompareOp is a comparison operator in a WHERE condition.
type CompareOp string

// Comparison operators.
const (
	OpEq  CompareOp = "="
	OpNeq CompareOp = "<>"
	OpGt  CompareOp = ">"
	OpGte CompareOp = ">="
	OpLt  CompareOp = "<"
	OpLte CompareOp = "<="
)

// Condition is one conjunct of the WHERE clause. Exactly one of the
// condition kinds is active:
//
//   - field condition: Subject is a field name, compared against Number;
//   - time condition: Subject == "time", compared against now() - Offset;
//   - tag condition: Subject is a tag key, compared (=, <>) against Str.
type Condition struct {
	Subject string
	Op      CompareOp

	Number float64       // field conditions
	Offset time.Duration // time conditions: threshold = now() - Offset
	Str    string        // tag conditions
	IsTime bool
	IsTag  bool
}

// Query is a parsed SELECT statement.
type Query struct {
	Field   Field
	Source  Source
	Where   []Condition // conjunction (AND)
	GroupBy []string    // tag keys
}

// Source is either a measurement name or a nested subquery.
type Source struct {
	Measurement string
	Sub         *Query
}

// String reconstructs a canonical form of the query (useful in errors and
// logs): Parse reads it back to a query that renders the same string.
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s(%s)", q.Field.Func, q.Field.Arg)
	if q.Field.Alias != "" {
		fmt.Fprintf(&b, " AS %s", q.Field.Alias)
	}
	if q.Source.Sub != nil {
		fmt.Fprintf(&b, " FROM (%s)", q.Source.Sub.String())
	} else {
		fmt.Fprintf(&b, " FROM %s", quote(q.Source.Measurement, '"'))
	}
	if len(q.Where) > 0 {
		parts := make([]string, 0, len(q.Where))
		for _, c := range q.Where {
			switch {
			case c.IsTime:
				// The lexer reads "us", not "µs".
				offset := strings.Replace(c.Offset.String(), "µs", "us", 1)
				parts = append(parts, fmt.Sprintf("time %s now() - %s", c.Op, offset))
			case c.IsTag:
				parts = append(parts, fmt.Sprintf("%s %s %s", c.Subject, c.Op, quote(c.Str, '\'')))
			default:
				// No exponent: the lexer reads none.
				parts = append(parts, fmt.Sprintf("%s %s %s", c.Subject, c.Op, strconv.FormatFloat(c.Number, 'f', -1, 64)))
			}
		}
		fmt.Fprintf(&b, " WHERE %s", strings.Join(parts, " AND "))
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// quote renders s raw between the quote character pref, or the other
// one if s contains pref. The lexer has no escapes, so it cannot produce
// a string that contains both.
func quote(s string, pref byte) string {
	q := pref
	if strings.IndexByte(s, q) >= 0 {
		if q == '"' {
			q = '\''
		} else {
			q = '"'
		}
	}
	return string(q) + s + string(q)
}
