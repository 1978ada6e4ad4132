package tsdb

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
)

// Run a target beyond its seeds with
//
//	go test -run '^$' -fuzz '^FuzzCanonicalKey$' -fuzztime 10s ./internal/tsdb
//	go test -run '^$' -fuzz '^FuzzWriteScan$' -fuzztime 10s ./internal/tsdb
//
// Crashers are kept under testdata/fuzz/<target> and replay as regular
// tests.

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

// fuzzRetention is FuzzWriteScan's retention: short, so that the ±30 s
// of its write instants and its clock advances cross the cutoff often.
const fuzzRetention = 20 * time.Second

// fuzzMeasurements and fuzzTagSets are the series FuzzWriteScan writes.
var (
	fuzzMeasurements = []string{"m", "n"}
	fuzzTagSets      = []Tags{{"pod_name": "a"}, {"pod_name": "b", "nodename": "x"}, {"pod_name": "c"}}
)

// refPoint is one write as fuzzRef keeps it.
type refPoint struct {
	at    time.Time
	value float64
}

// refSeries is one series of fuzzRef: every point written to it since
// it was created, in write order, none ever pruned.
type refSeries struct {
	measurement string
	tags        Tags
	points      []refPoint
}

// newest returns the series' latest instant.
func (s *refSeries) newest() time.Time {
	newest := s.points[0].at
	for _, p := range s.points[1:] {
		if p.at.After(newest) {
			newest = p.at
		}
	}
	return newest
}

// fuzzRef is the naive database FuzzWriteScan holds the DB to. It keeps
// instants as time.Time and compares them with time.Time's methods. It
// never prunes: a read filters at the retention cutoff instead. Retention
// is therefore unobservable except through the sweep, which drops a
// series whose newest instant is before the cutoff.
type fuzzRef struct {
	series []*refSeries
}

func (r *fuzzRef) write(measurement string, tags Tags, value float64, at time.Time) {
	for _, s := range r.series {
		if s.measurement == measurement && maps.Equal(s.tags, tags) {
			s.points = append(s.points, refPoint{at, value})
			return
		}
	}
	r.series = append(r.series, &refSeries{measurement, tags, []refPoint{{at, value}}})
}

func (r *fuzzRef) sweep(cutoff time.Time) int {
	n := len(r.series)
	r.series = slices.DeleteFunc(r.series, func(s *refSeries) bool { return s.newest().Before(cutoff) })
	return n - len(r.series)
}

// scan returns what Scan(measurement, from, to) must visit: the series in
// canonical key order, each with its points in [from, to] at or after the
// cutoff, in time order and, at one instant, in write order. A zero from
// or to is open.
func (r *fuzzRef) scan(measurement string, from, to, cutoff time.Time) []refSeries {
	var out []refSeries
	for _, s := range r.series {
		if s.measurement != measurement {
			continue
		}
		var pts []refPoint
		for _, p := range s.points {
			if !p.at.Before(cutoff) && (from.IsZero() || !p.at.Before(from)) && (to.IsZero() || !p.at.After(to)) {
				pts = append(pts, p)
			}
		}
		if len(pts) > 0 {
			slices.SortStableFunc(pts, func(a, b refPoint) int { return a.at.Compare(b.at) })
			out = append(out, refSeries{measurement, s.tags, pts})
		}
	}
	slices.SortFunc(out, func(a, b refSeries) int {
		return strings.Compare(string(appendCanonical(nil, a.tags)), string(appendCanonical(nil, b.tags)))
	})
	return out
}

// sameSeries reports whether the database's series got match the
// reference's want: the same tag sets in the same order, and the same
// values at the same instants in the same order. The instants are
// compared as UnixNanos renders the reference's.
func sameSeries(got []SeriesData, want []refSeries) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if !maps.Equal(g.Tags, w.tags) || len(g.Points) != len(w.points) {
			return false
		}
		for j, p := range g.Points {
			if p.Nanos != UnixNanos(w.points[j].at) || p.Value != w.points[j].value {
				return false
			}
		}
	}
	return true
}

// fuzzInstant decodes a write instant. The first kinds are the edges: one
// nanosecond either side of the retention cutoff and at it, now, the
// previous write's instant again, the zero time (before 1678) and year
// 2300 (after 2262). Every other kind is a quarter-second step between
// 34 s before now and 30 s after, so writes land out of order and at
// shared instants.
func fuzzInstant(kind byte, now, last time.Time) time.Time {
	cutoff := now.Add(-fuzzRetention)
	switch kind {
	case 0:
		return cutoff.Add(-time.Nanosecond)
	case 1:
		return cutoff
	case 2:
		return cutoff.Add(time.Nanosecond)
	case 3:
		return now
	case 4:
		return last
	case 5:
		return time.Time{}
	case 6:
		return time.Date(2300, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	return now.Add(time.Duration(int(kind)-136) * 250 * time.Millisecond)
}

// fuzzBound decodes one Scan bound: open, the edges of the retention
// cutoff, now, 5 s ago, or the last write's instant.
func fuzzBound(kind byte, now, last time.Time) time.Time {
	cutoff := now.Add(-fuzzRetention)
	return [8]time.Time{{}, cutoff.Add(-time.Nanosecond), cutoff, cutoff.Add(time.Nanosecond), now, now.Add(-5 * time.Second), last, now.Add(-fuzzRetention / 2)}[kind&7]
}

// FuzzWriteScan: the database serves what a naive reference serves. The
// input is a program of three-byte operations run against a DB and
// against fuzzRef:
//   - write (op 0 mod 4): series a, instant b (see fuzzInstant), or
//     WriteNow when b is 7; every write carries a fresh value, so order
//     shows;
//   - advance the clock (op 1): a half-seconds plus b%3 nanoseconds;
//   - sweep (op 2): SweepNow's count and SeriesCount must match;
//   - scan (op 3): measurement a, bounds b&7 and b>>3&7 (see fuzzBound);
//     the series and points visited must match.
//
// At the end Series must match an open scan of each measurement.
func FuzzWriteScan(f *testing.F) {
	for _, seed := range [][]byte{
		// Writes in order, one out of order, one at a shared instant; scan.
		{0, 0, 136, 1, 2, 0, 0, 0, 140, 0, 0, 130, 0, 0, 4, 3, 0, 0},
		// Writes at the cutoff's edges, then a nanosecond of clock at a
		// time: the edge points expire one by one.
		{0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 3, 0, 0, 1, 0, 1, 3, 0, 0, 1, 0, 1, 3, 0, 0, 1, 0, 1, 3, 0, 0},
		// Two series age out and are swept while a third lives on; a
		// series is recreated after its sweep.
		{0, 0, 136, 0, 1, 136, 1, 30, 0, 0, 2, 3, 2, 0, 0, 0, 0, 3, 2, 0, 0, 3, 0, 0, 3, 1, 0},
		// The zero time and year 2300; WriteNow; scans bounded by the
		// last write's instant.
		{0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 6, 3, 0, 0, 3, 0, 6, 3, 0, 0x30, 2, 0, 0},
		// Every scan bound pair over a window of writes.
		{0, 0, 120, 0, 0, 128, 0, 0, 136, 0, 0, 144, 1, 4, 0, 3, 0, 0x09, 3, 0, 0x12, 3, 0, 0x1b, 3, 0, 0x24, 3, 0, 0x2d, 3, 0, 0x36, 3, 0, 0x3f, 3, 0, 0x25},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		clk := clock.NewSim()
		db := New(clk, WithRetention(fuzzRetention), WithGCInterval(0))
		ref := &fuzzRef{}
		var last time.Time
		writes := 0
		for ; len(prog) >= 3 && writes < 200; prog = prog[3:] {
			op, a, b := prog[0]%4, prog[1], prog[2]
			now := clk.Now()
			cutoff := now.Add(-fuzzRetention)
			switch op {
			case 0:
				m := fuzzMeasurements[int(a)%len(fuzzMeasurements)]
				tags := fuzzTagSets[int(a)/len(fuzzMeasurements)%len(fuzzTagSets)]
				value := float64(writes)
				writes++
				if b == 7 {
					db.WriteNow(m, tags, value)
					last = now
				} else {
					last = fuzzInstant(b, now, last)
					db.Write(m, tags, value, last)
				}
				ref.write(m, tags.Clone(), value, last)
			case 1:
				clk.Advance(time.Duration(a)*time.Second/2 + time.Duration(b%3))
			case 2:
				if got, want := db.SweepNow(), ref.sweep(cutoff); got != want {
					t.Fatalf("SweepNow at %v dropped %d series, want %d", now, got, want)
				}
				if got, want := db.SeriesCount(), len(ref.series); got != want {
					t.Fatalf("SeriesCount after a sweep = %d, want %d", got, want)
				}
			case 3:
				m := fuzzMeasurements[int(a)%len(fuzzMeasurements)]
				from, to := fuzzBound(b, now, last), fuzzBound(b>>3, now, last)
				var got []SeriesData
				db.Scan(m, from, to, func(tags Tags, pts []Point) bool {
					got = append(got, SeriesData{Tags: tags, Points: slices.Clone(pts)})
					return true
				})
				if want := ref.scan(m, from, to, cutoff); !sameSeries(got, want) {
					t.Fatalf("Scan(%q, %v, %v) at %v visits %+v, want %+v", m, from, to, now, got, want)
				}
			}
		}
		now := clk.Now()
		for _, m := range fuzzMeasurements {
			if got, want := db.Series(m), ref.scan(m, time.Time{}, time.Time{}, now.Add(-fuzzRetention)); !sameSeries(got, want) {
				t.Fatalf("Series(%q) = %+v, want %+v", m, got, want)
			}
		}
	})
}
