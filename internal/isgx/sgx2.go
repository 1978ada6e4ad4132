package isgx

import (
	"fmt"

	"github.com/sgxorch/sgxorch/internal/sgx"
)

// SGX 2 (EDMM) mediation. The paper identifies its limit-enforcement
// implementation as "the only part of our system ... not yet SGX 2-ready"
// and estimates the port as modest (§VI-G); this is that port: the two
// dynamic-memory ioctls run the same per-cgroup limit check as
// __sgx_encl_init before touching the EPC.

// IoctlAugmentPages grows an initialized enclave by n pages (EAUG),
// denying the growth when it would push the owning pod past its
// registered EPC limit.
func (d *Driver) IoctlAugmentPages(e *sgx.Enclave, n int64) error {
	if e == nil || n < 0 {
		return fmt.Errorf("%w: enclave %v, pages %d", ErrInvalidArgument, e, n)
	}
	if d.enforce {
		limit, ok := d.limit(e.Cgroup)
		if used := d.pkg.PagesOf(e.Cgroup); ok && used+n > limit {
			return fmt.Errorf("%w: cgroup %s at %d pages, +%d exceeds limit %d",
				ErrEnclaveDenied, e.Cgroup.Path(), used, n, limit)
		}
	}
	return e.AugmentPages(n)
}

// IoctlTrimPages releases up to n pages from an initialized enclave and
// reports how many were released. Trimming never needs a limit check.
func (d *Driver) IoctlTrimPages(e *sgx.Enclave, n int64) (int64, error) {
	if e == nil || n < 0 {
		return 0, fmt.Errorf("%w: enclave %v, pages %d", ErrInvalidArgument, e, n)
	}
	return e.TrimPages(n)
}
