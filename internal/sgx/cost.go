package sgx

import (
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// CostModel reproduces the startup-latency measurements of Fig. 6
// ("Startup time of SGX processes observed for varying EPC sizes", §VI-D):
//
//   - launching the Platform Software / AESM service costs a constant
//     ~100 ms ("the service startup time is virtually the same in all
//     runs, accounting for about 100 ms");
//   - committing enclave memory costs 1.6 ms/MiB up to the usable EPC
//     limit, "after which it jumps to 4.5 ms/MiB, plus a fixed delay of
//     about 200 ms";
//   - standard (non-SGX) processes start in under 1 ms and are omitted
//     from the figure.
type CostModel struct {
	// PSWStartup is the AESM/PSW service initialization cost paid once
	// per container (§VI-D: one PSW instance per container because
	// privileged mode is avoided).
	PSWStartup time.Duration
	// AllocBelowPerMiB is the per-MiB commit cost while the allocation
	// fits in usable EPC.
	AllocBelowPerMiB time.Duration
	// AllocAbovePerMiB is the per-MiB cost for the portion beyond usable
	// EPC (the paging regime).
	AllocAbovePerMiB time.Duration
	// AllocAboveFixed is the fixed penalty paid once when the allocation
	// crosses the usable-EPC boundary.
	AllocAboveFixed time.Duration
	// StandardStartup is the startup latency of a non-SGX process
	// ("steadily took less than 1 ms").
	StandardStartup time.Duration
}

// DefaultCostModel returns the constants measured in §VI-D.
func DefaultCostModel() CostModel {
	return CostModel{
		PSWStartup:       100 * time.Millisecond,
		AllocBelowPerMiB: 1600 * time.Microsecond,
		AllocAbovePerMiB: 4500 * time.Microsecond,
		AllocAboveFixed:  200 * time.Millisecond,
		StandardStartup:  500 * time.Microsecond,
	}
}

// durPerMiB scales a per-MiB cost to an arbitrary byte count.
func durPerMiB(perMiB time.Duration, bytes int64) time.Duration {
	return time.Duration(float64(perMiB) * float64(bytes) / float64(resource.MiB))
}

// AllocLatency returns the time to commit allocBytes of enclave memory on
// a package whose usable EPC is usableBytes, following the two-slope model
// of Fig. 6.
func (m CostModel) AllocLatency(allocBytes, usableBytes int64) time.Duration {
	if allocBytes <= 0 {
		return 0
	}
	if allocBytes <= usableBytes {
		return durPerMiB(m.AllocBelowPerMiB, allocBytes)
	}
	below := durPerMiB(m.AllocBelowPerMiB, usableBytes)
	above := durPerMiB(m.AllocAbovePerMiB, allocBytes-usableBytes)
	return below + above + m.AllocAboveFixed
}

// StartupLatency returns the full SGX process startup time for an enclave
// allocation of allocBytes: PSW service launch plus memory commitment.
func (m CostModel) StartupLatency(allocBytes, usableBytes int64) time.Duration {
	return m.PSWStartup + m.AllocLatency(allocBytes, usableBytes)
}
