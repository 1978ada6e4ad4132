// Command sgx-plugin demonstrates the Kubernetes device plugin of §V-A:
// it probes a (simulated) machine for the SGX kernel module, advertises
// one resource item per usable EPC page, serves allocations with the
// /dev/isgx mount, and shows the driver's sysfs counters moving.
//
// Usage:
//
//	sgx-plugin [-epc-mib 128] [-allocate pages,pages,...]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/deviceplugin"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-plugin:", err)
		os.Exit(1)
	}
}

// run parses args, runs the demonstration and writes it to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sgx-plugin", flag.ContinueOnError)
	epcMiB := fs.Int64("epc-mib", 128, "EPC (PRM) size in MiB, > 0")
	allocs := fs.String("allocate", "2560,8192,12000", "comma-separated per-pod page allocations to simulate")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // -h printed the usage
	} else if err != nil {
		return err
	}
	if *epcMiB <= 0 {
		return fmt.Errorf("-epc-mib %d: want a size > 0", *epcMiB)
	}

	m := machine.New("sgx-node", 8*resource.GiB, 8000,
		machine.WithSGX(sgx.GeometryForSize(*epcMiB*resource.MiB)))
	plugin, ok := deviceplugin.Detect(m)
	if !ok {
		return fmt.Errorf("no SGX kernel module detected")
	}

	fmt.Fprintf(stdout, "detected SGX kernel module on %s\n", m.Name())
	fmt.Fprintf(stdout, "resource: %s\n", plugin.ResourceName())
	fmt.Fprintf(stdout, "advertised devices: %d (one per usable EPC page)\n", plugin.DeviceCount())
	printSysfs(stdout, m)

	for i, f := range strings.Split(*allocs, ",") {
		pages, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad allocation %q: %w", f, err)
		}
		cg := &cgroup.Cgroup{Name: strconv.Itoa(i)}
		resp, err := plugin.Allocate(cg, pages)
		if err != nil {
			fmt.Fprintf(stdout, "allocate %6d pages for %s: DENIED (%v)\n", pages, cg.Path(), err)
			continue
		}
		fmt.Fprintf(stdout, "allocate %6d pages for %s: ok, mounts %s -> %s (free %d)\n",
			pages, cg.Path(), resp.Mount.HostPath, resp.Mount.ContainerPath,
			plugin.FreeDevices())
	}
	return nil
}

func printSysfs(stdout io.Writer, m *machine.Machine) {
	fs := m.Driver().Sysfs()
	keys := make([]string, 0, len(fs))
	for k := range fs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%s = %s\n", k, fs[k])
	}
}
