// Package stress materialises trace jobs as running workloads, standing in
// for the STRESS-SGX / STRESS-NG containers of §VI-C: "Normal jobs use the
// original virtual memory stressor brought from STRESS-NG, while
// SGX-enabled jobs use the topical EPC stressor."
//
// A workload goes through the measured startup sequence of §VI-D (PSW
// service launch, then enclave memory commitment at the two-slope rate),
// allocates its memory — the trace's *maximal usage*, which may exceed the
// advertised request — holds it for the trace duration, then releases it.
// Enclave-init denial by the modified driver (§V-D) kills the workload
// immediately, which is how malicious containers die in Fig. 11.
//
// Each workload is a fixed plan of at most four steps, each a delay and
// the operation that ends it (allocate memory, open the enclave, augment,
// trim, done). The plan runs on one clock timer inside the Execution,
// beside its process: Start arms it for the first step, and each step
// re-arms it for the next with Reset.
package stress

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// ErrAborted is reported to OnFinished when an execution is aborted
// externally.
var ErrAborted = errors.New("stress: workload aborted")

// Config describes one workload execution.
type Config struct {
	Machine *machine.Machine
	// Cgroup is the pod's cgroup record, which its process charges.
	Cgroup *cgroup.Cgroup
	Spec   api.WorkloadSpec
	// OnFinished's Finished fires exactly once at termination; err is
	// nil for a normal completion and non-nil when the workload was
	// killed (e.g. enclave denial, OOM). It is an interface rather than a
	// func so a caller can pass a record it already keeps — the kubelet
	// passes its admission entry — and allocate no closure per workload.
	OnFinished interface{ Finished(err error) }
}

// op is what a plan step does once its delay has elapsed.
type op uint8

const (
	opAllocVM op = iota
	opOpenEnclave
	opAugment
	opTrim
	opDone
)

// step is one entry of an execution's plan: op runs once after has
// elapsed since the step before it ran (since Start, for the first).
type step struct {
	after time.Duration
	op    op
}

// Execution is a running workload: its plan, process and step timer.
type Execution struct {
	cfg  Config
	plan [4]step
	// pages is what the enclave commits when it opens; burst is what the
	// dynamic workload augments and later trims.
	pages, burst int64
	proc         machine.Process
	enclave      *sgx.Enclave

	mu    sync.Mutex
	timer clock.Event
	// next indexes plan. It is a byte beside finished, so that the two
	// share a word and the kubelet's admission entry, which holds an
	// Execution inline, stays in its allocation size class.
	next     uint8
	finished bool
}

// Start runs the workload on clk in e, a zero Execution its caller keeps
// and does not copy. Startup latencies (PSW + allocation, Fig. 6) elapse
// on the clock before memory is committed, then the working set is held
// for the spec duration. A refused spec starts no process; e is spent.
func (e *Execution) Start(clk clock.Clock, cfg Config) error {
	if cfg.Machine == nil || cfg.Cgroup == nil {
		return fmt.Errorf("stress: nil machine or cgroup")
	}
	spec := cfg.Spec
	if spec.Duration < 0 {
		return fmt.Errorf("stress: negative duration %v", spec.Duration)
	}
	epcKind := spec.Kind == api.WorkloadStressEPC || spec.Kind == api.WorkloadStressEPCDynamic
	if epcKind && !cfg.Machine.HasSGX() {
		return fmt.Errorf("stress: EPC workload on non-SGX machine %s: %w",
			cfg.Machine.Name(), machine.ErrNoSGX)
	}

	e.cfg = cfg
	switch spec.Kind {
	case api.WorkloadSleep:
		e.plan[0] = step{spec.Duration, opDone}
	case api.WorkloadStressVM:
		// "Measurements for standard jobs ... steadily took less than
		// 1 ms" (§VI-D).
		e.plan = [4]step{{sgx.StandardStartup, opAllocVM}, {spec.Duration, opDone}}
	case api.WorkloadStressEPC:
		// PSW/AESM boot, then enclave memory commitment at the measured
		// two-slope rate. A denied enclave (limit enforcement, §V-D)
		// kills the job immediately (§VI-F).
		startup := sgx.StartupLatency(spec.AllocBytes, cfg.Machine.SGX().Geometry().UsableBytes())
		e.pages = resource.PagesForBytes(spec.AllocBytes)
		e.plan = [4]step{{startup, opOpenEnclave}, {spec.Duration, opDone}}
	case api.WorkloadStressEPCDynamic:
		if !cfg.Machine.SGX().SGX2() {
			return fmt.Errorf("stress: dynamic EPC workload needs SGX 2 on machine %s: %w",
				cfg.Machine.Name(), sgx.ErrSGX1Only)
		}
		e.planDynamic()
	default:
		return fmt.Errorf("stress: unknown workload kind %v", spec.Kind)
	}

	e.proc.Start(cfg.Machine, cfg.Cgroup)
	clk.Arm(&e.timer, e.plan[0].after, e)
	return nil
}

// planDynamic lays out the SGX 2 workload of §VI-G: the enclave commits a
// baseline working set at initialization, bursts to its peak via dynamic
// EPC allocation (EAUG) for the middle third of its runtime, and trims
// back (EREMOVE) for the final third. Both dynamic operations go through
// the driver, which applies the pod's EPC limit to the burst exactly as
// it does at enclave initialization; a denied burst kills the job like an
// EINIT denial would.
//
// Compared with the SGX 1 stressor — which must hold its peak for the
// whole run — the dynamic variant keeps EPC free between bursts, which a
// usage-aware scheduler converts into extra packing headroom ("this new
// feature can really improve resource utilization on shared
// infrastructures", §VI-G).
func (e *Execution) planDynamic() {
	spec := e.cfg.Spec
	baseBytes := spec.BaseBytes
	if baseBytes <= 0 {
		baseBytes = spec.AllocBytes / 2
	}
	baseBytes = min(baseBytes, spec.AllocBytes)
	e.pages = resource.PagesForBytes(baseBytes)
	e.burst = resource.PagesForBytes(spec.AllocBytes) - e.pages

	usable := e.cfg.Machine.SGX().Geometry().UsableBytes()
	phase := spec.Duration / 3
	e.plan = [4]step{
		{sgx.StartupLatency(baseBytes, usable), opOpenEnclave},
		{phase, opAugment},
		{phase, opTrim},
		{spec.Duration - 2*phase, opDone},
	}
}

// Fire is the step timer's clock.Handler: it runs the due step, then
// re-arms the timer for the next one unless the workload has finished.
func (e *Execution) Fire() {
	var err error
	switch e.plan[e.next].op {
	case opAllocVM:
		err = e.proc.AllocVM(e.cfg.Spec.AllocBytes)
	case opOpenEnclave:
		e.enclave, err = e.proc.OpenEnclave(e.pages)
	case opAugment:
		if e.burst > 0 {
			err = e.cfg.Machine.Driver().IoctlAugmentPages(e.enclave, e.burst)
		}
	case opTrim:
		if e.burst > 0 {
			_, err = e.cfg.Machine.Driver().IoctlTrimPages(e.enclave, e.burst)
		}
	case opDone:
		e.finish(nil)
		return
	}
	if err != nil {
		e.finish(err)
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.finished {
		e.next++
		e.timer.Reset(e.plan[e.next].after)
	}
}

// finish terminates the workload exactly once: the process is killed
// (releasing RAM and destroying enclaves) and OnFinished is invoked.
func (e *Execution) finish(err error) {
	e.mu.Lock()
	if e.finished {
		e.mu.Unlock()
		return
	}
	e.finished = true
	e.mu.Unlock()

	e.timer.Stop()
	e.proc.Kill()
	if done := e.cfg.OnFinished; done != nil {
		done.Finished(err)
	}
}

// Abort kills the workload; OnFinished receives ErrAborted.
func (e *Execution) Abort() { e.finish(ErrAborted) }
