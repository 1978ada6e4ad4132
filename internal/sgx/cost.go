package sgx

import (
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// The start-up costs measured in §VI-D (Fig. 6, "Startup time of SGX
// processes observed for varying EPC sizes"). They are the paper's
// figures, not settings:
//
//   - launching the Platform Software / AESM service costs a constant
//     ~100 ms ("the service startup time is virtually the same in all
//     runs, accounting for about 100 ms");
//   - committing enclave memory costs 1.6 ms/MiB up to the usable EPC
//     limit, "after which it jumps to 4.5 ms/MiB, plus a fixed delay of
//     about 200 ms";
//   - standard (non-SGX) processes start in under 1 ms and are omitted
//     from the figure.
const (
	// PSWStartup is the AESM/PSW service initialization cost paid once
	// per container (§VI-D: one PSW instance per container because
	// privileged mode is avoided).
	PSWStartup = 100 * time.Millisecond
	// StandardStartup is the startup latency of a non-SGX process
	// ("steadily took less than 1 ms").
	StandardStartup = 500 * time.Microsecond

	// The two-slope commit cost: per MiB while the allocation fits in
	// usable EPC, per MiB for the portion beyond it (the paging regime),
	// and the fixed penalty paid once on crossing the boundary.
	allocBelowPerMiB = 1600 * time.Microsecond
	allocAbovePerMiB = 4500 * time.Microsecond
	allocAboveFixed  = 200 * time.Millisecond
)

// durPerMiB scales a per-MiB cost to an arbitrary byte count.
func durPerMiB(perMiB time.Duration, bytes int64) time.Duration {
	return time.Duration(float64(perMiB) * float64(bytes) / float64(resource.MiB))
}

// AllocLatency returns the time to commit allocBytes of enclave memory on
// a package whose usable EPC is usableBytes, following the two-slope model
// of Fig. 6.
func AllocLatency(allocBytes, usableBytes int64) time.Duration {
	if allocBytes <= 0 {
		return 0
	}
	if allocBytes <= usableBytes {
		return durPerMiB(allocBelowPerMiB, allocBytes)
	}
	below := durPerMiB(allocBelowPerMiB, usableBytes)
	above := durPerMiB(allocAbovePerMiB, allocBytes-usableBytes)
	return below + above + allocAboveFixed
}

// StartupLatency returns the full SGX process startup time for an enclave
// allocation of allocBytes: PSW service launch plus memory commitment.
func StartupLatency(allocBytes, usableBytes int64) time.Duration {
	return PSWStartup + AllocLatency(allocBytes, usableBytes)
}
