package tsdb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// Run a target beyond its seeds with
//
//	go test -run '^$' -fuzz '^FuzzCanonicalKey$' -fuzztime 10s ./internal/tsdb
//
// Crashers are kept under testdata/fuzz/FuzzCanonicalKey and replay as
// regular tests.

// fuzzTags builds a tag set of up to three pairs from a fuzz input: its
// first six NUL-separated fields, read as key, value, key, value, ….
func fuzzTags(s string) Tags {
	fields := strings.SplitN(s, "\x00", 7)
	t := Tags{}
	for i := 0; i+1 < min(len(fields), 6); i += 2 {
		t[fields[i]] = fields[i+1]
	}
	return t
}

// fuzzInput is fuzzTags' inverse, keys sorted.
func fuzzInput(t Tags) string {
	var fields []string
	for _, k := range slices.Sorted(maps.Keys(t)) {
		fields = append(fields, k, t[k])
	}
	return strings.Join(fields, "\x00")
}

// parseCanonical reads appendCanonical's rendering back into a tag set:
// "k=v," per tag, with ',', '=' and '\' escaped by a '\' inside keys and
// values.
func parseCanonical(key string) (Tags, error) {
	t := Tags{}
	var field strings.Builder
	var k string
	inValue := false
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c == '\\':
			if i++; i == len(key) {
				return nil, fmt.Errorf("%q: escape at the end", key)
			}
			field.WriteByte(key[i])
		case c == '=' && !inValue:
			k, inValue = field.String(), true
			field.Reset()
		case c == ',' && inValue:
			if _, dup := t[k]; dup {
				return nil, fmt.Errorf("%q: key %q twice", key, k)
			}
			t[k], inValue = field.String(), false
			field.Reset()
		case c == '=' || c == ',':
			return nil, fmt.Errorf("%q: unescaped %q at %d", key, c, i)
		default:
			field.WriteByte(c)
		}
	}
	if inValue || field.Len() > 0 {
		return nil, fmt.Errorf("%q: unterminated tag", key)
	}
	return t, nil
}

// FuzzCanonicalKey: the series key is injective. Every rendering parses
// back into the tag set it came from, and two tag sets render the same key
// only when they are equal.
func FuzzCanonicalKey(f *testing.F) {
	sets := []Tags{ // TestCanonicalKeyInjective's
		{"pod_name": "p", "nodename": "n"},
		{"a": "1,b=2"},
		{"a": "1", "b": "2"},
		{"a": `x\`, "b": "y"},
		{"a": `x\,b=y`},
		{"a": ""},
		{"": "a"},
		{},
		{"a": "", "b": ""},
		{"a=": ""},
	}
	for i, a := range sets {
		f.Add(fuzzInput(a), fuzzInput(sets[(i+1)%len(sets)]))
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ta, tb := fuzzTags(a), fuzzTags(b)
		ka, kb := string(appendCanonical(nil, ta)), string(appendCanonical(nil, tb))
		for _, c := range []struct {
			tags Tags
			key  string
		}{{ta, ka}, {tb, kb}} {
			back, err := parseCanonical(c.key)
			if err != nil {
				t.Fatalf("tags %q render as %v", c.tags, err)
			}
			if !maps.Equal(back, c.tags) {
				t.Fatalf("tags %q render as %q, which reads back as %q", c.tags, c.key, back)
			}
		}
		if (ka == kb) != maps.Equal(ta, tb) {
			t.Fatalf("tags %q and %q render as %q and %q", ta, tb, ka, kb)
		}
	})
}
