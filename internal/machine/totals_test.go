package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sgxorch/sgxorch/internal/isgx"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

// scanVMBytes is the walk VMBytesByCgroup made before the machine kept
// per-cgroup totals: every live process of the cgroup, summed.
func scanVMBytes(m *Machine, cgroupPath string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, p := range m.procs {
		if p.CgroupPath == cgroupPath {
			total += p.vmBytes
		}
	}
	return total
}

// scanPages is the walk PagesForCgroup and PagesForPID made before the
// SGX package kept per-owner totals: every live enclave of the owner,
// summed. enclaves is every enclave the run opened; the package's own
// table held exactly those not yet destroyed.
func scanPages(enclaves []*sgx.Enclave, match func(*sgx.Enclave) bool) int64 {
	var total int64
	for _, e := range enclaves {
		if e.State() != sgx.EnclaveDestroyedState && match(e) {
			total += e.Pages()
		}
	}
	return total
}

// TestIndexedTotalsMatchScanProperty: the per-cgroup memory total the
// machine keeps, and the per-cgroup and per-process page totals the SGX
// package keeps, equal the brute-force scans they replaced after every
// step of a random run — processes started, allocating, freeing and
// killed; enclaves opened, grown and trimmed (SGX 2 EDMM, §VI-G) and
// destroyed; opens and growth the driver's limit check denies. Each seed
// runs with limit enforcement on and off, and includes Fig. 11's tenant
// whose enclaves ask for three times its advertised EPC: denied with
// enforcement, admitted without. With enforcement on no limited pod ever
// holds more than its limit.
func TestIndexedTotalsMatchScanProperty(t *testing.T) {
	const tenant, tenantLimit = "/kubepods/tenant", 500
	cgroups := []string{"/kubepods/pod0", "/kubepods/pod1", "/kubepods/pod2", tenant}
	limits := map[string]int64{"/kubepods/pod0": 3000, "/kubepods/pod1": 1000, tenant: tenantLimit} // pod2: no limit registered
	for seed := int64(0); seed < 200; seed++ {
		for _, enforce := range []bool{true, false} {
			var opts []isgx.Option
			if !enforce {
				opts = append(opts, isgx.WithoutEnforcement())
			}
			rng := rand.New(rand.NewSource(seed))
			m := New("sgx", 512*resource.MiB, 8000, WithSGX2(sgx.DefaultGeometry(), opts...))
			for cg, limit := range limits {
				if err := m.Driver().IoctlSetLimit(cg, limit); err != nil {
					t.Fatal(err)
				}
			}
			var procs []*Process
			var enclaves []*sgx.Enclave
			where := func(step int) string { return fmt.Sprintf("seed %d, enforcement %v, step %d", seed, enforce, step) }
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op == 0 || len(procs) == 0:
					procs = append(procs, m.StartProcess(cgroups[rng.Intn(len(cgroups))]))
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
					p := m.StartProcess(tenant)
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

				positive := 0
				for _, cg := range cgroups {
					vm := scanVMBytes(m, cg)
					if got := m.VMBytesByCgroup(cg); got != vm {
						t.Fatalf("%s: VMBytesByCgroup(%s) = %d, scan %d", where(step), cg, got, vm)
					}
					if vm > 0 {
						positive++
					}
					pages := scanPages(enclaves, func(e *sgx.Enclave) bool { return e.CgroupPath == cg })
					if got := m.SGX().PagesForCgroup(cg); got != pages {
						t.Fatalf("%s: PagesForCgroup(%s) = %d, scan %d", where(step), cg, got, pages)
					}
					if limit, ok := limits[cg]; enforce && ok && pages > limit {
						t.Fatalf("%s: %s holds %d pages past its limit %d", where(step), cg, pages, limit)
					}
				}
				if len(m.vmByCgroup) != positive {
					t.Fatalf("%s: %d cgroup memory totals kept, %d cgroups hold memory", where(step), len(m.vmByCgroup), positive)
				}
				for _, p := range procs {
					pages := scanPages(enclaves, func(e *sgx.Enclave) bool { return e.PID == p.PID })
					if got := m.SGX().PagesForPID(p.PID); got != pages {
						t.Fatalf("%s: PagesForPID(%d) = %d, scan %d", where(step), p.PID, got, pages)
					}
				}
			}
		}
	}
}
