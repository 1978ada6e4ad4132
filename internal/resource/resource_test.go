package resource

import (
	"testing"
	"testing/quick"
)

func TestPagesForBytes(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{4096, 1},
		{4097, 2},
		{93*MiB + 512*KiB, 23936}, // 93.5 MiB == full usable EPC (§II)
		{128 * MiB, 32768},
	}
	for _, tc := range cases {
		if got := PagesForBytes(tc.bytes); got != tc.want {
			t.Errorf("PagesForBytes(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestBytesForPagesRoundTrip(t *testing.T) {
	if got := BytesForPages(23936); got != 23936*4096 {
		t.Fatalf("BytesForPages(23936) = %d", got)
	}
	f := func(pages uint16) bool {
		p := int64(pages)
		return PagesForBytes(BytesForPages(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestListAddSubClone(t *testing.T) {
	a := List{Memory: 100, CPU: 4}
	b := List{Memory: 30, EPCPages: 5}
	sum := a.Add(b)
	if want := (List{CPU: 4, Memory: 130, EPCPages: 5}); sum != want {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
	if diff := sum.Sub(b); diff != a {
		t.Fatalf("Sub = %v, want %v", diff, a)
	}
	// Add and Sub work on copies: the receiver is untouched.
	if want := (List{Memory: 100, CPU: 4}); a != want {
		t.Fatalf("Add/Sub mutated receiver: %v", a)
	}
}

// A List is a value: assignment, Clone and passing to a function all
// copy, and writing the copy leaves the original alone.
func TestListCopyIsIndependent(t *testing.T) {
	a := List{Memory: 100}
	b, c := a, a.Clone()
	b[Memory] = 1
	c[EPCPages] = 7
	func(l List) { l[CPU] = 9 }(a)
	if want := (List{Memory: 100}); a != want {
		t.Fatalf("writing a copy changed the original: %v", a)
	}
	if b[Memory] != 1 || c[EPCPages] != 7 || c[Memory] != 100 {
		t.Fatalf("copies lost their writes: b=%v c=%v", b, c)
	}
}

func TestListFits(t *testing.T) {
	node := List{Memory: 8 * GiB, EPCPages: 23936}
	cases := []struct {
		name string
		avl  List
		req  List
		want bool
	}{
		{"fits exactly", node, List{Memory: 8 * GiB, EPCPages: 23936}, true},
		{"fits partial", node, List{Memory: GiB}, true},
		{"memory too big", node, List{Memory: 9 * GiB}, false},
		{"epc too big", node, List{EPCPages: 23937}, false},
		{"absent resource requested", node, List{CPU: 1}, false},
		{"zero request on absent resource", node, List{CPU: 0}, true},
		{"empty request", node, List{}, true},
		// A headroom that went negative (measured EPC above allocatable)
		// refuses only the pods that ask for that resource.
		{"negative headroom, resource not requested", List{Memory: GiB, EPCPages: -40}, List{Memory: MiB}, true},
		{"negative headroom, resource requested", List{Memory: GiB, EPCPages: -40}, List{Memory: MiB, EPCPages: 1}, false},
	}
	for _, tc := range cases {
		if got := tc.avl.Fits(tc.req); got != tc.want {
			t.Errorf("%s: %v.Fits(%v) = %v, want %v", tc.name, tc.avl, tc.req, got, tc.want)
		}
	}
}

func TestNonSGXNodeRejectsEPCRequest(t *testing.T) {
	// Hardware-compatibility filter of §IV: an SGX-enabled job on a
	// non-SGX node can never fit.
	nonSGX := List{Memory: 64 * GiB}
	if nonSGX.Fits(List{EPCPages: 1}) {
		t.Fatal("non-SGX node accepted an EPC request")
	}
}

// The zero value is the empty list, and == is equality: a resource set to
// zero and one never set are the same list.
func TestListIsZeroAndEqual(t *testing.T) {
	var zero List
	if zero != (List{}) || (List{Memory: 0}) != zero {
		t.Fatal("explicit zero should equal the zero value")
	}
	if (List{Memory: 1}) == zero {
		t.Fatal("non-zero list equals the zero value")
	}
	if (List{Memory: 1}) == (List{Memory: 2}) {
		t.Fatal("unequal lists reported equal")
	}
	if zero.Get(EPCPages) != 0 || zero.String() != "" {
		t.Fatalf("zero list reads %d / %q", zero.Get(EPCPages), zero.String())
	}
}

func TestListString(t *testing.T) {
	cases := []struct {
		l    List
		want string
	}{
		{List{Memory: 5, CPU: 2}, "cpu=2,memory=5"},
		{List{EPCPages: 23936, Memory: 64 * GiB, CPU: 4000}, "cpu=4000,memory=68719476736,sgx.intel.com/epc-page=23936"},
		{List{EPCPages: 3}, "sgx.intel.com/epc-page=3"},
		{List{CPU: 0, Memory: 7}, "memory=7"}, // zero quantities are elided
		{List{EPCPages: -70}, "sgx.intel.com/epc-page=-70"},
	}
	for _, tc := range cases {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestNameString(t *testing.T) {
	for _, tc := range []struct {
		n    Name
		want string
	}{
		{CPU, "cpu"},
		{Memory, "memory"},
		{EPCPages, "sgx.intel.com/epc-page"},
		{numNames, "resource.Name(3)"},
	} {
		if got := tc.n.String(); got != tc.want {
			t.Errorf("Name(%d).String() = %q, want %q", uint8(tc.n), got, tc.want)
		}
	}
}

// randomList draws one quantity per resource from three quick-check ints.
func randomList(cpu, mem, epc int32) List {
	return List{CPU: int64(cpu), Memory: int64(mem), EPCPages: int64(epc)}
}

// Property: whatever fits still fits once the request shrinks — Fits(a+b)
// implies Fits(a) for non-negative b, on every resource at once.
func TestFitsMonotoneProperty(t *testing.T) {
	f := func(c0, c1, c2 int32, r0, r1, r2, e0, e1, e2 uint16) bool {
		capacity := randomList(c0, c1, c2) // may be negative: a headroom
		small := randomList(int32(r0), int32(r1), int32(r2))
		big := small.Add(randomList(int32(e0), int32(e1), int32(e2)))
		return !capacity.Fits(big) || capacity.Fits(small)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then Sub round-trips.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(a0, a1, a2, b0, b1, b2 int32) bool {
		x, y := randomList(a0, a1, a2), randomList(b0, b1, b2)
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
