package influxql

import (
	"math/rand"
	"testing"
)

// FuzzParse feeds arbitrary text to the parser: Parse must never panic,
// and a query it accepts must render to a canonical form that parses
// again and renders the same string. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/influxql
//
// Crashers it finds are kept under testdata/fuzz/FuzzParse and replayed
// by every plain go test.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		listing1,
		`SELECT SUM(mem) AS mem FROM (SELECT MAX(value) AS mem FROM "memory/usage" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename) GROUP BY nodename`,
		`SELECT MEAN(value) AS mem FROM "memory/usage" WHERE time >= now() - 10m GROUP BY nodename`,
		// Each rendered, before the canonical form was fixed, into text
		// the lexer cannot read: an exponent, "µs", Go's escapes, and a
		// quote character inside a string quoted with it.
		`SELECT SUM(value) FROM "sgx/epc" WHERE value > 1000000`,
		`SELECT SUM(value) FROM "sgx/epc" WHERE value > 0.0000001`,
		`SELECT SUM(value) FROM "sgx/epc" WHERE time >= now() - 250us`,
		`SELECT SUM(value) FROM 'a"b'`,
		"SELECT SUM(value) FROM \"a\tb\"",
		`SELECT SUM(value) FROM m WHERE pod_name = "x'y"`,
	} {
		f.Add(seed)
	}
	for _, bad := range badQueries {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		rendered := q.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", input, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("Parse(%q) renders %q, which renders %q", input, rendered, got)
		}
	})
}

// FuzzRun runs arbitrary query text that parses against one fixed
// random database through both the streaming executor and the
// materializing reference (refRun), and requires the same rows bit for
// bit, or the same error. Run it with
//
//	go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 30s ./internal/influxql
//
// Crashers it finds are kept under testdata/fuzz/FuzzRun and replayed by
// every plain go test.
func FuzzRun(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	db := randomDB(rng)
	f.Add(listing1)
	for _, q := range failingQueries {
		f.Add(q)
	}
	for range 8 {
		f.Add(randomQuery(rng))
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if _, err := matchOracle(db, q); err != nil {
			t.Fatal(err)
		}
	})
}
