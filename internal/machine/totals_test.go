package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// scanVMBytes is the walk the machine made before it kept per-cgroup
// totals: every live process of the cgroup, summed. procs is every
// process the run started; the machine's own table held exactly those
// not yet killed.
func scanVMBytes(procs []*Process, cg *cgroup.Cgroup) int64 {
	var total int64
	for _, p := range procs {
		p.mu.Lock()
		if !p.dead && p.cg == cg {
			total += p.vmBytes
		}
		p.mu.Unlock()
	}
	return total
}

// liveCounts counts the processes not yet killed and the enclaves not yet
// destroyed: what the tables the machine and the SGX package kept before
// they counted held.
func liveCounts(procs []*Process, enclaves []*sgx.Enclave) (liveProcs, liveEnclaves int) {
	for _, p := range procs {
		p.mu.Lock()
		if !p.dead {
			liveProcs++
		}
		p.mu.Unlock()
	}
	for _, e := range enclaves {
		if e.State() != sgx.EnclaveDestroyedState {
			liveEnclaves++
		}
	}
	return liveProcs, liveEnclaves
}

// scanPages is the walk the SGX package made before it kept per-cgroup
// totals: every live enclave of the cgroup, summed. enclaves is every
// enclave the run opened; the package's own table held exactly those not
// yet destroyed.
func scanPages(enclaves []*sgx.Enclave, cg *cgroup.Cgroup) int64 {
	var total int64
	for _, e := range enclaves {
		if e.State() != sgx.EnclaveDestroyedState && e.Cgroup == cg {
			total += e.Pages()
		}
	}
	return total
}

// TestIndexedTotalsMatchScanProperty: the memory total the machine keeps
// on each cgroup record, and the page total the SGX package keeps on it,
// equal the brute-force scans they replaced, and the machine's live
// process and the package's live enclave counts equal what the scans
// count, after every
// step of a random run — processes started, allocating, freeing and
// killed; enclaves opened, grown and trimmed (SGX 2 EDMM, §VI-G) and
// destroyed; opens and growth the driver's limit check denies. Each seed
// runs with limit enforcement on and off, and includes Fig. 11's tenant
// whose enclaves ask for three times its advertised EPC: denied with
// enforcement, admitted without. With enforcement on no limited pod ever
// holds more than its limit.
func TestIndexedTotalsMatchScanProperty(t *testing.T) {
	const tenantLimit = 500
	limits := []int64{3000, 1000, 0, tenantLimit} // pod2: no limit registered
	for seed := int64(0); seed < 200; seed++ {
		for _, enforce := range []bool{true, false} {
			var opts []isgx.Option
			if !enforce {
				opts = append(opts, isgx.WithoutEnforcement())
			}
			rng := rand.New(rand.NewSource(seed))
			m := New("sgx", 512*resource.MiB, 8000, WithSGX2(sgx.DefaultGeometry(), opts...))
			cgroups := make([]*cgroup.Cgroup, len(limits))
			for i, limit := range limits {
				cgroups[i] = &cgroup.Cgroup{Name: fmt.Sprint("pod", i)}
				if limit == 0 {
					continue
				}
				if err := m.Driver().IoctlSetLimit(cgroups[i], limit); err != nil {
					t.Fatal(err)
				}
			}
			tenant := cgroups[3]
			var procs []*Process
			var enclaves []*sgx.Enclave
			where := func(step int) string { return fmt.Sprintf("seed %d, enforcement %v, step %d", seed, enforce, step) }
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op == 0 || len(procs) == 0:
					procs = append(procs, spawn(m, cgroups[rng.Intn(len(cgroups))]))
				case op == 1: // may exceed the machine's RAM, or reach a dead process
					_ = procs[rng.Intn(len(procs))].AllocVM(rng.Int63n(128 * resource.MiB))
				case op == 2:
					procs[rng.Intn(len(procs))].FreeVM(rng.Int63n(128 * resource.MiB))
				case op == 3:
					procs[rng.Intn(len(procs))].Kill()
				case op == 4: // may push the pod past its limit, or reach a dead process
					if e, err := procs[rng.Intn(len(procs))].OpenEnclave(1 + rng.Int63n(1200)); err == nil {
						enclaves = append(enclaves, e)
					}
				case op == 5: // Fig. 11's over-allocating tenant
					p := spawn(m, tenant)
					procs = append(procs, p)
					e, err := p.OpenEnclave(3 * tenantLimit)
					if enforce != (err != nil) {
						t.Fatalf("%s: tenant's over-allocating open: err = %v", where(step), err)
					}
					if err == nil {
						enclaves = append(enclaves, e)
					}
				case op == 6 && len(enclaves) > 0: // EAUG, limit-checked; fails on a destroyed enclave
					_ = m.Driver().IoctlAugmentPages(enclaves[rng.Intn(len(enclaves))], rng.Int63n(800))
				case op == 7 && len(enclaves) > 0:
					_, _ = m.Driver().IoctlTrimPages(enclaves[rng.Intn(len(enclaves))], rng.Int63n(800))
				case op == 8 && len(enclaves) > 0: // fails on an enclave already destroyed
					_ = enclaves[rng.Intn(len(enclaves))].Destroy()
				}

				if procsWant, enclavesWant := liveCounts(procs, enclaves); m.ProcessCount() != procsWant || m.SGX().EnclaveCount() != enclavesWant {
					t.Fatalf("%s: %d live processes, %d live enclaves; scan %d, %d",
						where(step), m.ProcessCount(), m.SGX().EnclaveCount(), procsWant, enclavesWant)
				}
				for i, cg := range cgroups {
					vm, pages := scanVMBytes(procs, cg), scanPages(enclaves, cg)
					if gotVM, gotPages := m.Usage(cg); gotVM != vm || gotPages != pages {
						t.Fatalf("%s: Usage(%s) = %d B, %d pages; scan %d B, %d pages",
							where(step), cg.Path(), gotVM, gotPages, vm, pages)
					}
					if limit := limits[i]; cg.Limited != (limit > 0) || cg.LimitPages != limit {
						t.Fatalf("%s: %s limit %d (set %v), want %d", where(step), cg.Path(), cg.LimitPages, cg.Limited, limit)
					}
					if enforce && cg.Limited && pages > cg.LimitPages {
						t.Fatalf("%s: %s holds %d pages past its limit %d", where(step), cg.Path(), pages, cg.LimitPages)
					}
				}
			}
		}
	}
}
