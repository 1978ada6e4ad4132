package sgxorch

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ledgerGolden pins TestAllocLedger's per-package allocation figures.
const ledgerGolden = "testdata/alloc_ledger.golden"

// ledgerTopFuncs is how many of a package's functions its row names.
const ledgerTopFuncs = 3

// ledgerModule is the import path every charged frame is under.
const ledgerModule = "github.com/sgxorch/sgxorch"

// ledgerRow is one package's share of a workload's allocations, per job.
type ledgerRow struct {
	pkg            string
	objects, bytes float64
	funcs          string // the package's largest functions, by objects per job
}

// ledgerSection is one workload's ledger: a row per package, largest
// first, and the whole.
type ledgerSection struct {
	title string
	rows  []ledgerRow
	all   ledgerRow
	// mallocs is runtime.MemStats' count per job, which counts each
	// tiny allocation: the profile records a 16-byte block of them once.
	mallocs float64
}

// TestAllocLedger is the allocation ledger: it runs the 13-node scaling
// mix and the §VI-B eval-slice replay with every allocation profiled,
// charges each object to the first internal/ package on its stack (the
// module's root package when there is none; runtime work that no module
// frame caused is left out), and compares objects and bytes per job, per
// package, with testdata/alloc_ledger.golden. A row may move by 1 % or
// 0.02 objects per job, whichever is larger; its bytes by 1 % or 2 B per
// job, since a map's tables split by a hash seeded anew each run, which
// moves a small row's bytes by up to 1 B per job.
// -update rewrites the rows that moved out of tolerance and keeps the
// pinned text of the rest, so a re-pin's diff is the change's; the
// golden's header names the Go release it was pinned under, and another
// release skips the comparison, since escape analysis moves with the
// compiler (an -update under another release rewrites every row). The
// per-function column is what to read when a row moves; it is not
// compared.
func TestAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	nodes, jobs := scalingCluster(1)
	trace := GenerateBorgEvalSlice(1)
	got := []ledgerSection{
		measureLedger(fmt.Sprintf("scaling mix: %d nodes, %d jobs", len(nodes), len(jobs)), len(jobs),
			func() { runScaling(t, nodes, jobs, false) }),
		measureLedger(fmt.Sprintf("eval-slice replay: seed 1, %d jobs", trace.Len()), trace.Len(), func() {
			if _, err := ReplayBorgTrace(ReplayOptions{Trace: trace, Seed: 1, SGXRatio: 0.5}); err != nil {
				t.Fatal(err)
			}
		}),
	}
	t.Log("\n" + formatLedger(got))
	if *update {
		if release, want, err := readLedger(ledgerGolden); err == nil && goRelease(release) == goRelease(runtime.Version()) {
			keepPinned(got, want)
		}
		if err := os.WriteFile(ledgerGolden, []byte(formatLedger(got)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	release, want, err := readLedger(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if goRelease(runtime.Version()) != goRelease(release) {
		t.Skipf("%s is pinned under %s, this is %s: re-pin it with -update in a commit of its own",
			ledgerGolden, release, runtime.Version())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d sections, want %d (-update rewrites it)", ledgerGolden, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.title != w.title {
			t.Errorf("section %d is %q, the golden's %q", i, g.title, w.title)
			continue
		}
		if !inTolerance(g.mallocs, w.mallocs, 0.02) {
			t.Errorf("%s: %.2f mallocs per job, pinned at %.2f", g.title, g.mallocs, w.mallocs)
		}
		pinned := w.byPkg()
		seen := map[string]bool{}
		for _, r := range append(slices.Clone(g.rows), g.all) {
			seen[r.pkg] = true
			p := pinned[r.pkg]
			if r.moved(p) {
				t.Errorf("%s: %s allocates %.2f objects and %.1f B per job, pinned at %.2f and %.1f (largest: %s)",
					g.title, r.pkg, r.objects, r.bytes, p.objects, p.bytes, r.funcs)
			}
		}
		for pkg, p := range pinned {
			if !seen[pkg] && !inTolerance(0, p.objects, 0.02) {
				t.Errorf("%s: %s allocates nothing, pinned at %.2f objects per job", g.title, pkg, p.objects)
			}
		}
	}
	if t.Failed() {
		t.Logf("after an intended change, rewrite %s with -update and commit its diff with the change", ledgerGolden)
	}
}

// byPkg is the section's rows, "all" included, by package.
func (s ledgerSection) byPkg() map[string]ledgerRow {
	rows := map[string]ledgerRow{"all": s.all}
	for _, r := range s.rows {
		rows[r.pkg] = r
	}
	return rows
}

// moved reports whether r's objects or bytes are out of tolerance of p's.
func (r ledgerRow) moved(p ledgerRow) bool {
	return !inTolerance(r.objects, p.objects, 0.02) || !inTolerance(r.bytes, p.bytes, 2)
}

// keepPinned puts want's text back into every row of got, and every
// mallocs line, that has not moved out of tolerance, in the golden's
// order, and places each rewritten row by its figures, so that -update
// rewrites only what moved.
func keepPinned(got, want []ledgerSection) {
	for i := range got {
		if i >= len(want) || got[i].title != want[i].title {
			continue
		}
		g, w := &got[i], want[i]
		if inTolerance(g.mallocs, w.mallocs, 0.02) {
			g.mallocs = w.mallocs
		}
		if !g.all.moved(w.all) {
			g.all = w.all
		}
		rewritten := g.byPkg()
		var rows []ledgerRow
		for _, p := range w.rows {
			if r, ok := rewritten[p.pkg]; ok && !r.moved(p) {
				rows = append(rows, p)
				delete(rewritten, p.pkg)
			}
		}
		for _, r := range g.rows {
			if _, ok := rewritten[r.pkg]; ok {
				at := slices.IndexFunc(rows, func(k ledgerRow) bool { return ledgerOrder(r, k) < 0 })
				if at < 0 {
					at = len(rows)
				}
				rows = slices.Insert(rows, at, r)
			}
		}
		g.rows = rows
	}
}

// ledgerOrder sorts rows largest first by objects, then by package.
func ledgerOrder(a, b ledgerRow) int {
	return cmp.Or(cmp.Compare(b.objects, a.objects), strings.Compare(a.pkg, b.pkg))
}

// inTolerance reports whether got is want give or take 1 % or floor, whichever
// is larger.
func inTolerance(got, want, floor float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= max(0.01*want, floor)
}

// goRelease is a runtime version's release, "go1.24" of "go1.24.3".
func goRelease(v string) string {
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		return parts[0] + "." + parts[1]
	}
	return v
}

// memRecords is the cumulative allocation profile, keyed by stack.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC() // publishes every allocation made before it
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[r.Stack0] = r
	}
	return out
}

// measureLedger runs work with every allocation profiled and returns the
// objects and bytes it allocated per job, by package.
func measureLedger(title string, jobs int, work func()) ledgerSection {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	var ms0, ms1 runtime.MemStats
	before := memRecords()
	runtime.ReadMemStats(&ms0)
	work()
	runtime.ReadMemStats(&ms1)
	after := memRecords()
	runtime.MemProfileRate = rate

	type tally struct{ objects, bytes int64 }
	byPkg, byFunc := map[string]*tally{}, map[string]*tally{}
	add := func(m map[string]*tally, key string, objects, bytes int64) {
		if m[key] == nil {
			m[key] = &tally{}
		}
		m[key].objects += objects
		m[key].bytes += bytes
	}
	for stack, r := range after {
		b := before[stack]
		objects, bytes := r.AllocObjects-b.AllocObjects, r.AllocBytes-b.AllocBytes
		if objects == 0 {
			continue
		}
		fn, ok := chargedFrame(r.Stack())
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(fn, ".")
		add(byPkg, pkg, objects, bytes)
		add(byFunc, fn, objects, bytes)
	}

	perJob := func(n int64) float64 { return float64(n) / float64(jobs) }
	sec := ledgerSection{title: title, all: ledgerRow{pkg: "all"}, mallocs: perJob(int64(ms1.Mallocs - ms0.Mallocs))}
	for pkg, tl := range byPkg {
		row := ledgerRow{pkg: pkg, objects: perJob(tl.objects), bytes: perJob(tl.bytes)}
		var fns []string
		for fn := range byFunc {
			if p, _, _ := strings.Cut(fn, "."); p == pkg {
				fns = append(fns, fn)
			}
		}
		slices.SortFunc(fns, func(a, b string) int {
			return cmp.Or(cmp.Compare(byFunc[b].objects, byFunc[a].objects), strings.Compare(a, b))
		})
		var top []string
		for _, fn := range fns[:min(len(fns), ledgerTopFuncs)] {
			top = append(top, fmt.Sprintf("%s %.2f", strings.TrimPrefix(fn, pkg+"."), perJob(byFunc[fn].objects)))
		}
		row.funcs = strings.Join(top, ", ")
		sec.rows = append(sec.rows, row)
		sec.all.objects += row.objects
		sec.all.bytes += row.bytes
	}
	slices.SortFunc(sec.rows, ledgerOrder)
	return sec
}

// chargedFrame returns the function an allocation is charged to, as
// "pkg.Func": the first internal/ frame from the leaf, else the first
// frame of the module's root package. It reports false for a stack with
// no module frame, and for the ledger's own snapshots.
func chargedFrame(stack []uintptr) (string, bool) {
	const internal = ledgerModule + "/internal/"
	root := ""
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		switch {
		case f.Function == ledgerModule+".memRecords":
			return "", false
		case strings.HasPrefix(f.Function, internal):
			return strings.TrimPrefix(f.Function, internal), true
		case root == "" && strings.HasPrefix(f.Function, ledgerModule+"."):
			root = "sgxorch" + strings.TrimPrefix(f.Function, ledgerModule)
		}
		if !more {
			return root, root != ""
		}
	}
}

func formatLedger(secs []ledgerSection) string {
	var b strings.Builder
	fmt.Fprintln(&b, "# TestAllocLedger: objects and bytes allocated per job, each charged to the first")
	fmt.Fprintln(&b, "# internal/ package on its stack (the module's root package when there is none).")
	fmt.Fprintf(&b, "# %s\n", runtime.Version())
	for _, s := range secs {
		fmt.Fprintf(&b, "\n== %s\n", s.title)
		fmt.Fprintf(&b, "%-14s %11s %10s  %s\n", "package", "objects/job", "bytes/job", "largest functions (objects/job)")
		for _, r := range append(slices.Clone(s.rows), s.all) {
			fmt.Fprintln(&b, strings.TrimRight(fmt.Sprintf("%-14s %11.2f %10.1f  %s", r.pkg, r.objects, r.bytes, r.funcs), " "))
		}
		fmt.Fprintf(&b, "mallocs/job %.2f (runtime.MemStats, which counts every tiny allocation of a 16-byte block the rows count once)\n", s.mallocs)
	}
	return b.String()
}

// readLedger parses a formatLedger file: the Go version it was pinned
// under and its sections.
func readLedger(path string) (release string, secs []ledgerSection, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# go"):
			release = strings.TrimPrefix(line, "# ")
		case line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "package "):
		case strings.HasPrefix(line, "mallocs/job "):
			fields := strings.Fields(line)
			if len(secs) == 0 || len(fields) < 2 {
				return "", nil, fmt.Errorf("%s: malformed line %q", path, line)
			}
			if secs[len(secs)-1].mallocs, err = strconv.ParseFloat(fields[1], 64); err != nil {
				return "", nil, fmt.Errorf("%s: %w", path, err)
			}
		case strings.HasPrefix(line, "== "):
			secs = append(secs, ledgerSection{title: strings.TrimPrefix(line, "== ")})
		default:
			fields := strings.Fields(line)
			if len(secs) == 0 || len(fields) < 3 {
				return "", nil, fmt.Errorf("%s: malformed line %q", path, line)
			}
			r := ledgerRow{pkg: fields[0], funcs: strings.Join(fields[3:], " ")}
			if r.objects, err = strconv.ParseFloat(fields[1], 64); err != nil {
				return "", nil, fmt.Errorf("%s: %w", path, err)
			}
			if r.bytes, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return "", nil, fmt.Errorf("%s: %w", path, err)
			}
			s := &secs[len(secs)-1]
			if r.pkg == "all" {
				s.all = r
			} else {
				s.rows = append(s.rows, r)
			}
		}
	}
	return release, secs, sc.Err()
}
