package experiments

import (
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestTraceJobFollowsSectionVIB: every job of the eval slices at seeds
// 1–3, scaled by TraceJob as a standard, a static SGX and a dynamic SGX
// job and filled into a pod, carries exactly §VI-B's requests, limits and
// workload, written out here from the scaling rules themselves:
//   - standard: a memory request of the scaled assigned memory, and a VM
//     stressor allocating the scaled maximal usage;
//   - static SGX: 16 MiB of memory plus the pages of the scaled assigned
//     memory, requested and limited alike, and an EPC stressor allocating
//     the scaled maximal usage;
//   - dynamic SGX: 16 MiB of memory plus the pages of half the
//     advertisement requested, the pages of all of it as the limit, and a
//     dynamic EPC stressor whose baseline is the request's bytes, half
//     the advertisement.
func TestTraceJobFollowsSectionVIB(t *testing.T) {
	type want struct {
		requests, limits resource.List
		workload         api.WorkloadSpec
	}
	const name = "job-000001"
	for seed := int64(1); seed <= 3; seed++ {
		for _, job := range borg.NewGenerator(seed).EvalSlice().Jobs {
			adv := borg.SGXMemBytes(job.AssignedMemFrac)
			peak := borg.SGXMemBytes(job.MaxMemFrac)
			for _, tc := range []struct {
				mode         string
				sgx, dynamic bool
				want         want
			}{
				{"standard", false, false, want{
					requests: resource.List{resource.Memory: borg.StandardMemBytes(job.AssignedMemFrac)},
					workload: api.WorkloadSpec{Kind: api.WorkloadStressVM, Duration: job.Duration, AllocBytes: borg.StandardMemBytes(job.MaxMemFrac)},
				}},
				{"static SGX", true, false, want{
					requests: resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: resource.PagesForBytes(adv)},
					limits:   resource.List{resource.EPCPages: resource.PagesForBytes(adv)},
					workload: api.WorkloadSpec{Kind: api.WorkloadStressEPC, Duration: job.Duration, AllocBytes: peak},
				}},
				{"dynamic SGX", true, true, want{
					requests: resource.List{resource.Memory: 16 * resource.MiB, resource.EPCPages: resource.PagesForBytes(adv / 2)},
					limits:   resource.List{resource.EPCPages: resource.PagesForBytes(adv)},
					workload: api.WorkloadSpec{Kind: api.WorkloadStressEPCDynamic, Duration: job.Duration, AllocBytes: peak, BaseBytes: adv / 2},
				}},
			} {
				j := TraceJob(name, job, tc.sgx, tc.dynamic)
				if err := j.validate(); err != nil {
					t.Fatalf("seed %d job %d as %s: %v", seed, job.ID, tc.mode, err)
				}
				var pod api.Pod
				var ctr [1]api.Container
				j.fill(&pod, &ctr)
				if pod.Name != name || len(pod.Spec.Containers) != 1 || &pod.Spec.Containers[0] != &ctr[0] {
					t.Fatalf("seed %d job %d as %s: pod %q with %d containers, want %q with ctr[0]", seed, job.ID, tc.mode, pod.Name, len(pod.Spec.Containers), name)
				}
				got := want{ctr[0].Resources.Requests, ctr[0].Resources.Limits, ctr[0].Workload}
				if got != tc.want {
					t.Fatalf("seed %d job %d as %s:\n got %+v\nwant %+v", seed, job.ID, tc.mode, got, tc.want)
				}
			}
		}
	}
}
