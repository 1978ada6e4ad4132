package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// PreemptionReport summarises the priority/preemption scenario: the §VI-A
// testbed with both SGX machines' EPC fully committed to low-priority
// hogs, into which a high-priority SGX job is submitted. Without
// preemption the job would wait ~an hour for a hog to finish; with it the
// scheduler evicts a minimal victim set and binds in the very next pass.
type PreemptionReport struct {
	// PassesToBind counts scheduling passes between the high-priority
	// submission and its binding (1 = the first pass after submission).
	PassesToBind int
	// BoundNode is where the high-priority pod landed.
	BoundNode string
	// Victims lists the evicted pods, in eviction order.
	Victims []string
	// VictimsRescheduled reports whether every victim ran again and
	// finished after the high-priority job released the capacity.
	VictimsRescheduled bool
	// HighPriorityWaiting is the §VI-E waiting time of the high-priority
	// job; LowPriorityBaselineWaiting is the waiting time the same job
	// experiences in an identical run without a priority (FCFS behind the
	// hogs), for contrast.
	HighPriorityWaiting        time.Duration
	LowPriorityBaselineWaiting time.Duration
	// Preemptions / EvictedVictims are the scheduler's counters.
	Preemptions    int
	EvictedVictims int
	Notes          []string
}

// preemptionEPCJob builds one SGX pod for the scenario.
func preemptionEPCJob(name string, prio int32, pages int64, dur time.Duration) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			SchedulerName: SchedulerName,
			Priority:      prio,
			Containers: []api.Container{{
				Name: "main",
				Resources: api.Requirements{
					Requests: resource.List{
						resource.Memory:   32 * resource.MiB,
						resource.EPCPages: pages,
					},
					Limits: resource.List{resource.EPCPages: pages},
				},
				Workload: api.WorkloadSpec{
					Kind:       api.WorkloadStressEPC,
					Duration:   dur,
					AllocBytes: resource.BytesForPages(pages) / 2,
				},
			}},
		},
	}
}

// PreemptionScenario runs the priority/preemption experiment on the
// 5-machine testbed (§VI-A shape): four hour-long low-priority EPC hogs
// fill both SGX machines, then a high-priority SGX job arrives. The run
// asserts nothing itself — it reports what happened; the tests (and the
// examples/preemption walkthrough) interpret the numbers.
func PreemptionScenario(urgentPriority int32) (PreemptionReport, error) {
	run := func(prio int32) (PreemptionReport, *Testbed, error) {
		tcfg := Paper(0)
		tcfg.audit = newAudit(tcfg.Admission)
		tb, err := NewTestbed(tcfg)
		if err != nil {
			return PreemptionReport{}, nil, fmt.Errorf("preemption scenario: %w", err)
		}
		// Two hogs per SGX machine: each pair commits 22000 of the 23936
		// usable EPC page items, leaving too little for the urgent job.
		hogs := []string{"hog-a", "hog-b", "hog-c", "hog-d"}
		for _, name := range hogs {
			if err := tb.Srv.CreatePod(preemptionEPCJob(name, 0, 11000, time.Hour)); err != nil {
				tb.Close()
				return PreemptionReport{}, nil, err
			}
		}
		tb.Clk.Advance(15 * time.Second) // hogs bind, start, and begin reporting usage

		// The victims are read off the watch stream, in rev order: each pod
		// a preemption sent back to the queue.
		var victims []string
		defer tb.Srv.Subscribe(func(ev apiserver.WatchEvent) {
			if p := ev.Pod; ev.Type == apiserver.PodUpdated && p.Status.Phase == api.PodPending &&
				p.Spec.NodeName == "" && strings.HasPrefix(p.Status.Reason, "Preempted") {
				victims = append(victims, p.Name)
			}
		})()
		passesBefore := tb.Scheduler.Stats().Passes
		urgent := preemptionEPCJob("urgent", prio, 6000, 2*time.Minute)
		if err := tb.Srv.CreatePod(urgent); err != nil {
			tb.Close()
			return PreemptionReport{}, nil, err
		}
		// Advance until the urgent pod binds (or give up after two hours
		// of simulated time — the no-priority baseline binds only when a
		// hog finishes, after about an hour).
		var bound *api.Pod
		for waited := time.Duration(0); waited < 2*time.Hour; waited += time.Second {
			tb.Clk.Advance(time.Second)
			p, err := tb.Srv.GetPod("urgent")
			if err != nil {
				tb.Close()
				return PreemptionReport{}, nil, err
			}
			if p.Spec.NodeName != "" {
				bound = p
				break
			}
		}
		rep := PreemptionReport{}
		if bound != nil {
			rep.BoundNode = bound.Spec.NodeName
		}
		st := tb.Scheduler.Stats()
		rep.PassesToBind = st.Passes - passesBefore
		rep.Preemptions = st.Preemptions
		rep.EvictedVictims = st.Victims
		rep.Victims = victims
		return rep, tb, nil
	}

	rep, tb, err := run(urgentPriority)
	if err != nil {
		return PreemptionReport{}, err
	}
	// Let the urgent job finish and the victims reschedule, then drain.
	tb.Clk.Advance(3 * time.Hour)
	rep.VictimsRescheduled = len(rep.Victims) > 0
	for _, v := range rep.Victims {
		p, err := tb.Srv.GetPod(v)
		if err != nil || p.Status.Phase != api.PodSucceeded {
			rep.VictimsRescheduled = false
		}
	}
	if p, err := tb.Srv.GetPod("urgent"); err == nil {
		if w, ok := p.WaitingTime(); ok {
			rep.HighPriorityWaiting = w
		}
	}
	tb.Close()
	if err := tb.Cfg.audit.err(); err != nil {
		return PreemptionReport{}, fmt.Errorf("preemption scenario: %w", err)
	}

	// Contrast run: the same job without a priority waits FCFS.
	baseRep, baseTb, err := run(0)
	if err != nil {
		return PreemptionReport{}, err
	}
	baseTb.Clk.Advance(3 * time.Hour)
	if p, err := baseTb.Srv.GetPod("urgent"); err == nil {
		if w, ok := p.WaitingTime(); ok {
			rep.LowPriorityBaselineWaiting = w
		}
	}
	baseTb.Close()
	if err := baseTb.Cfg.audit.err(); err != nil {
		return PreemptionReport{}, fmt.Errorf("preemption scenario baseline: %w", err)
	}
	if baseRep.Preemptions != 0 {
		rep.Notes = append(rep.Notes, "unexpected: baseline run preempted")
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("high-priority job bound on %s in %d pass(es), evicting %d victim(s): %v",
			rep.BoundNode, rep.PassesToBind, rep.EvictedVictims, rep.Victims),
		fmt.Sprintf("waiting time %v with priority %d vs %v FCFS baseline",
			rep.HighPriorityWaiting.Round(time.Millisecond), urgentPriority,
			rep.LowPriorityBaselineWaiting.Round(time.Millisecond)))
	return rep, nil
}
