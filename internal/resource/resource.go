// Package resource defines the resource vocabulary shared by the API
// objects, the device plugin and the scheduler.
//
// The paper's key insight (§V-A) is to expose every EPC page as an
// individually countable resource item so several SGX pods can share a
// node. We therefore model quantities as plain integers: bytes for memory,
// pages for EPC, millicores for CPU. The vocabulary is closed — EPC is one
// more countable item beside the two Kubernetes already counts — so a
// quantity of everything (List) is a fixed array indexed by Name: a
// comparable value that is copied by assignment and compared with ==.
package resource

import (
	"fmt"
	"strings"
)

// Name identifies a resource kind. It is a dense index into List; String
// gives the Kubernetes name.
type Name uint8

// Resource names used across the cluster, in the order of their Kubernetes
// names. EPCPages follows the extended-resource naming convention used by
// device plugins.
const (
	CPU      Name = iota // millicores, "cpu"
	Memory               // bytes, "memory"
	EPCPages             // 4 KiB EPC pages (§V-A), "sgx.intel.com/epc-page"
	numNames
)

var nameStrings = [numNames]string{"cpu", "memory", "sgx.intel.com/epc-page"}

// String returns the Kubernetes resource name.
func (n Name) String() string {
	if n >= numNames {
		return fmt.Sprintf("resource.Name(%d)", uint8(n))
	}
	return nameStrings[n]
}

// Byte size helpers.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// EPCPageSize is the size of one EPC page: "The EPC is split into pages of
// 4KiB" (§II).
const EPCPageSize int64 = 4 * KiB

// PagesForBytes returns the number of EPC pages needed to hold b bytes
// (rounded up). Zero or negative byte counts need zero pages.
func PagesForBytes(b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (b + EPCPageSize - 1) / EPCPageSize
}

// BytesForPages returns the byte capacity of p EPC pages.
func BytesForPages(p int64) int64 { return p * EPCPageSize }

// List holds one integer quantity per resource name. It is a value: the
// zero value is the empty list, assignment copies it, == compares it, and
// a resource that was never set reads as zero. A keyed literal
// (List{Memory: 1 << 30}) and indexing (l[EPCPages] = n on a variable)
// are the ways to build one.
type List [numNames]int64

// Get returns the quantity for name.
func (l List) Get(name Name) int64 { return l[name] }

// Clone returns a copy of l, as assignment does.
func (l List) Clone() List { return l }

// Add returns l + other, element-wise.
func (l List) Add(other List) List {
	for i, v := range other {
		l[i] += v
	}
	return l
}

// Sub returns l - other, element-wise. Quantities may go negative; use
// Fits to test satisfiability instead.
func (l List) Sub(other List) List {
	for i, v := range other {
		l[i] -= v
	}
	return l
}

// Fits reports whether request fits in l, i.e. request <= l element-wise
// over the resources request asks for. A resource the node does not
// expose holds zero, so a request for it (e.g. EPC pages on a non-SGX
// node) does not fit — this is the hardware-compatibility filter of §IV.
// Non-positive requests are skipped rather than compared: l may be a
// headroom that went negative (measured usage above allocatable, the
// malicious tenant of Fig. 11), and a pod that asks for none of that
// resource still fits.
func (l List) Fits(request List) bool {
	for i, v := range request {
		if v > 0 && l[i] < v {
			return false
		}
	}
	return true
}

// String renders the non-zero quantities in name order, e.g.
// "cpu=4000,memory=68719476736,sgx.intel.com/epc-page=23936".
func (l List) String() string {
	var b strings.Builder
	for i, v := range l {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", Name(i), v)
	}
	return b.String()
}
