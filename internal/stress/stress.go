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
package stress

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// ErrAborted is reported to OnFinished when an execution is aborted
// externally.
var ErrAborted = errors.New("stress: workload aborted")

// Runner launches workloads on machines using a shared clock and SGX cost
// model.
type Runner struct {
	clk  clock.Clock
	cost sgx.CostModel
}

// NewRunner creates a workload runner. A zero CostModel is replaced by the
// paper's measured defaults.
func NewRunner(clk clock.Clock, cost sgx.CostModel) *Runner {
	if cost == (sgx.CostModel{}) {
		cost = sgx.DefaultCostModel()
	}
	return &Runner{clk: clk, cost: cost}
}

// Config describes one workload execution.
type Config struct {
	Machine    *machine.Machine
	CgroupPath string
	Spec       api.WorkloadSpec
	// OnFinished fires exactly once at termination; err is nil for a
	// normal completion and non-nil when the workload was killed (e.g.
	// enclave denial, OOM).
	OnFinished func(err error)
}

// Execution is a handle on a running workload.
type Execution struct {
	clk  clock.Clock
	proc *machine.Process

	mu       sync.Mutex
	timer    clock.Timer
	finished bool
	onDone   func(error)
}

// Run starts the workload and returns its handle. Startup latencies
// (PSW + allocation, Fig. 6) elapse on the clock before memory is
// committed, then the working set is held for the spec duration.
func (r *Runner) Run(cfg Config) (*Execution, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("stress: nil machine")
	}
	if cfg.Spec.Duration < 0 {
		return nil, fmt.Errorf("stress: negative duration %v", cfg.Spec.Duration)
	}
	epcKind := cfg.Spec.Kind == api.WorkloadStressEPC || cfg.Spec.Kind == api.WorkloadStressEPCDynamic
	if epcKind && !cfg.Machine.HasSGX() {
		return nil, fmt.Errorf("stress: EPC workload on non-SGX machine %s: %w",
			cfg.Machine.Name(), machine.ErrNoSGX)
	}
	if cfg.Spec.Kind == api.WorkloadStressEPCDynamic && !cfg.Machine.SGX().SGX2() {
		return nil, fmt.Errorf("stress: dynamic EPC workload needs SGX 2 on machine %s: %w",
			cfg.Machine.Name(), sgx.ErrSGX1Only)
	}

	ex := &Execution{
		clk:    r.clk,
		proc:   cfg.Machine.StartProcess(cfg.CgroupPath),
		onDone: cfg.OnFinished,
	}

	switch cfg.Spec.Kind {
	case api.WorkloadSleep:
		ex.arm(cfg.Spec.Duration, func() { ex.finish(nil) })
	case api.WorkloadStressVM:
		// "Measurements for standard jobs ... steadily took less than
		// 1 ms" (§VI-D).
		ex.arm(r.cost.StandardStartup, func() {
			if err := ex.proc.AllocVM(cfg.Spec.AllocBytes); err != nil {
				ex.finish(err)
				return
			}
			ex.arm(cfg.Spec.Duration, func() { ex.finish(nil) })
		})
	case api.WorkloadStressEPC:
		// PSW/AESM boot, then enclave memory commitment at the measured
		// two-slope rate.
		startup := r.cost.StartupLatency(cfg.Spec.AllocBytes, cfg.Machine.SGX().Geometry().UsableBytes())
		pages := resource.PagesForBytes(cfg.Spec.AllocBytes)
		ex.arm(startup, func() {
			if _, err := ex.proc.OpenEnclave(pages); err != nil {
				// Enclave denied (limit enforcement, §V-D): the job is
				// killed immediately (§VI-F).
				ex.finish(err)
				return
			}
			ex.arm(cfg.Spec.Duration, func() { ex.finish(nil) })
		})
	case api.WorkloadStressEPCDynamic:
		r.runDynamicEPC(ex, cfg)
	default:
		ex.proc.Kill()
		return nil, fmt.Errorf("stress: unknown workload kind %v", cfg.Spec.Kind)
	}
	return ex, nil
}

// arm schedules the next lifecycle step unless already finished.
func (e *Execution) arm(d time.Duration, f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return
	}
	e.timer = e.clk.AfterFunc(d, f)
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
	t := e.timer
	done := e.onDone
	e.mu.Unlock()

	if t != nil {
		t.Stop()
	}
	e.proc.Kill()
	if done != nil {
		done(err)
	}
}

// Abort kills the workload; OnFinished receives ErrAborted.
func (e *Execution) Abort() { e.finish(ErrAborted) }

// Finished reports whether the workload has terminated.
func (e *Execution) Finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finished
}

// PID returns the workload's process ID.
func (e *Execution) PID() int { return e.proc.PID }
