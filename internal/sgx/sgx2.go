package sgx

import "fmt"

// SGX 2 support (§VI-G): "The most important feature that this new
// version introduces is dynamic EPC memory allocation. Enclaves can ask
// the operating system for the allocation of new memory pages, and may
// also release pages they own ... these operations can also be done
// during their execution."
//
// The hardware model exposes the two dynamic operations — EAUG (augment)
// and trim/EREMOVE — gated on the package's SGX 2 capability. Policy
// (per-pod EPC limits) stays in the driver, which mediates both
// operations exactly as the kernel does for real EDMM.

// WithSGX2 enables dynamic memory management (EDMM) on the package.
func WithSGX2() Option {
	return func(p *Package) { p.sgx2 = true }
}

// SGX2 reports whether the package supports dynamic EPC allocation.
func (p *Package) SGX2() bool { return p.sgx2 }

// ErrSGX1Only is returned for dynamic operations on SGX 1 hardware.
var ErrSGX1Only = fmt.Errorf("sgx: dynamic EPC operations require SGX 2")

// AugmentPages commits n additional pages to an initialized enclave
// (EAUG + EACCEPT). On SGX 1 hardware this fails: all memory must be
// committed before EINIT (§V-E).
func (e *Enclave) AugmentPages(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative page count %d", ErrEnclaveState, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case EnclaveDestroyedState:
		return ErrEnclaveDestroyed
	case EnclaveCreated:
		// Before EINIT, plain EADD is the right operation.
		return fmt.Errorf("%w: EAUG before EINIT (use AddPages)", ErrEnclaveState)
	}
	if !e.pkg.SGX2() {
		return ErrSGX1Only
	}
	e.pkg.commit(e, n)
	e.pages += n
	return nil
}

// TrimPages releases up to n pages from an initialized enclave
// (EMODT/ETRACK/EREMOVE). It returns the number of pages actually
// released.
func (e *Enclave) TrimPages(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative page count %d", ErrEnclaveState, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case EnclaveDestroyedState:
		return 0, ErrEnclaveDestroyed
	case EnclaveCreated:
		return 0, fmt.Errorf("%w: trim before EINIT", ErrEnclaveState)
	}
	if !e.pkg.SGX2() {
		return 0, ErrSGX1Only
	}
	if n > e.pages {
		n = e.pages
	}
	e.pkg.release(e, n)
	e.pages -= n
	return n, nil
}
