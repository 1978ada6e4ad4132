package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The pairs a comparison runs. Pair i runs the driver at seed i on both
// sides, the parent first in odd pairs and the change first in even ones,
// so the two runs of a pair share the host's state and the order that
// favours one side alternates.
const (
	pairs       = 10
	pairSeconds = "3"
)

// spec is what the comparison reads of BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// driverRun is one run of bench/run.sh, parsed.
type driverRun struct {
	commit  string            // the env: line's commit, "+dirty" cut
	digests map[string]string // workload → sim_digest, where one is printed
	results map[string]struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
}

type pair struct{ parent, change driverRun }

// parseRun reads the driver's stdout: the env: line first, a header line
// per workload (which carries its sim_digest), the result JSON last.
func parseRun(out string) (driverRun, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	r := driverRun{digests: map[string]string{}}
	for _, f := range strings.Fields(lines[0]) {
		if c, ok := strings.CutPrefix(f, "commit="); ok {
			r.commit = strings.TrimSuffix(c, "+dirty")
		}
	}
	if r.commit == "" {
		return r, errors.New("no env: line naming a commit")
	}
	for _, l := range lines {
		if name, rest, ok := strings.Cut(l, " — op = "); ok {
			if _, d, ok := strings.Cut(rest, "sim_digest "); ok {
				r.digests[name] = d
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.results); err != nil {
		return r, fmt.Errorf("last line is not the result JSON: %w", err)
	}
	return r, nil
}

// compare runs the whole-stack benchmark on rev and on the working tree in
// alternating pairs, prints the judgement and fails when a check does.
func compare(rev string, stdout io.Writer) error {
	out, err := command("", "git", "rev-parse", "--show-toplevel", "HEAD", rev+"^{commit}", "--")
	if err != nil {
		return err
	}
	revs := strings.Split(out, "\n") // the top level, HEAD, rev, "--"
	root, head, base := revs[0], revs[1], revs[2]
	var sp spec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	// A clone, not a worktree: a worktree's .git is a file, which the Go
	// toolchain's VCS stamping does not recognise, so the driver's env:
	// line would name the enclosing checkout's commit. --shared borrows
	// the checkout's objects, so any commit it holds can be checked out.
	parent, keep := filepath.Join(root, ".bench_build", "parent"), filepath.Join(root, ".bench_build", "compare")
	if err := os.RemoveAll(parent); err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	if _, err := command(root, "git", "clone", "-q", "--shared", "--no-checkout", root, parent); err != nil {
		return err
	}
	if _, err := command(parent, "git", "checkout", "-q", "--detach", base); err != nil {
		return err
	}
	if err := os.MkdirAll(keep, 0o755); err != nil {
		return err
	}
	ps := make([]pair, pairs)
	for i := range ps {
		sides := []struct {
			name, dir string
			into      *driverRun
		}{{"parent", parent, &ps[i].parent}, {"change", root, &ps[i].change}}
		if i%2 == 1 {
			slices.Reverse(sides)
		}
		for _, s := range sides {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i+1, pairs, s.name)
			if *s.into, err = runDriver(s.dir, i+1, filepath.Join(keep, fmt.Sprintf("%s-%02d.txt", s.name, i+1))); err != nil {
				return fmt.Errorf("%s, seed %d: %w", s.name, i+1, err)
			}
		}
	}
	fmt.Fprintf(stdout, "## Whole-stack benchmark: %.12s (parent) → %.12s (change), %d pairs of %s s runs\n\n", base, head, pairs, pairSeconds)
	if fails := judge(stdout, sp, base, head, ps); len(fails) > 0 {
		return fmt.Errorf("%d check(s) failed", len(fails))
	}
	return nil
}

// command runs name in dir, its stderr passed through, and returns its
// stdout.
func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(out), err
}

// runDriver runs bench/run.sh untraced at seed in checkout dir and keeps
// its stdout in the file keep.
func runDriver(dir string, seed int, keep string) (driverRun, error) {
	out, err := command(dir, "bash", "bench/run.sh", "--trace", "0", "--seed", strconv.Itoa(seed), "--seconds", pairSeconds)
	if werr := os.WriteFile(keep, []byte(out), 0o644); err == nil {
		err = werr
	}
	if err != nil {
		return driverRun{}, err
	}
	return parseRun(out)
}

// trajectoryRow is one workload/metric of the JSON line that closes the
// report, the line a change commits as its BENCH_<n>.json.
type trajectoryRow struct {
	Parent *float64 `json:"parent"` // null where the parent lacks the workload or metric
	Change float64  `json:"change"`
	Unit   string   `json:"unit"`
}

// judge prints the comparison of ps: a markdown table of every workload ×
// end-to-end metric, the failed checks, and the trajectory JSON as the last
// line. It returns the failed checks. wantParent and wantChange are the
// commits the two sides were meant to measure.
func judge(w io.Writer, sp spec, wantParent, wantChange string, ps []pair) []string {
	var fails []string
	failf := func(format string, a ...any) { fails = append(fails, fmt.Sprintf(format, a...)) }
	for i, p := range ps {
		if p.parent.commit != wantParent || p.change.commit != wantChange {
			failf("seed %d: the runs measured %s (parent) and %s (change), not %s and %s", i+1, p.parent.commit, p.change.commit, wantParent, wantChange)
		}
	}
	fmt.Fprintf(w, "Cells: parent → change (medians over %d pairs), the median per-pair change [its IQR], pairs where the change is better, and the verdict against BENCHMARK.json's bound.\n\n| workload |", len(ps))
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, " `%s` (%s, %s better, bound %g %%) |", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---|", len(sp.EndToEnd)))
	traj := map[string]trajectoryRow{}
	for _, wl := range sp.Workloads {
		var pf, pa, cf, ca int // failed and attempted, parent and change
		for i, p := range ps {
			par, inParent := p.parent.results[wl.Name]
			chg, inChange := p.change.results[wl.Name]
			if (inParent && !par.Correct) || (inChange && !chg.Correct) {
				failf("seed %d: %s is not correct (parent %t, change %t)", i+1, wl.Name, par.Correct, chg.Correct)
			}
			if inParent && p.parent.digests[wl.Name] != p.change.digests[wl.Name] {
				failf("seed %d: %s sim_digest %q (parent) ≠ %q (change): the two sides did different work", i+1, wl.Name, p.parent.digests[wl.Name], p.change.digests[wl.Name])
			}
			pf, pa, cf, ca = pf+par.Failed, pa+par.Attempted, cf+chg.Failed, ca+chg.Attempted
		}
		if cf*pa > pf*ca { // cf/ca > pf/pa without dividing by an attempted 0
			failf("%s: the change failed %d of %d ops, the parent %d of %d", wl.Name, cf, ca, pf, pa)
		}
		fmt.Fprintf(w, "| `%s` |", wl.Name)
		for _, m := range sp.EndToEnd {
			sign := 1.0 // a pair's worsening is sign × (change/parent − 1)
			if m.Better == "higher" {
				sign = -1
			}
			var par, chg, worse []float64
			missing, isNew, wins := false, false, 0
			for _, p := range ps {
				cv, inChange := p.change.results[wl.Name].Metrics[m.Name]
				pv, inParent := p.parent.results[wl.Name].Metrics[m.Name]
				missing, isNew = missing || !inChange, isNew || !inParent
				par, chg, worse = append(par, pv.Value), append(chg, cv.Value), append(worse, sign*(cv.Value/pv.Value-1))
				if worse[len(worse)-1] < 0 {
					wins++
				}
			}
			pmed, _ := quartiles(par)
			cmed, _ := quartiles(chg)
			v, wmed, iqr := verdict(worse, m.Bound)
			switch {
			case missing:
				failf("%s: the change reports no %s", wl.Name, m.Name)
				fmt.Fprint(w, " missing |")
			case isNew:
				traj[wl.Name+"/"+m.Name] = trajectoryRow{Change: cmed, Unit: m.Unit}
				fmt.Fprintf(w, " %.6g, new |", cmed)
			default:
				if v == "**worse**" {
					failf("%s %s is worse: median %+.1f %% a pair (IQR %.1f %%) against a %g %% bound", wl.Name, m.Name, 100*sign*wmed, 100*iqr, 100*m.Bound)
				}
				traj[wl.Name+"/"+m.Name] = trajectoryRow{Parent: &pmed, Change: cmed, Unit: m.Unit}
				fmt.Fprintf(w, " %.6g → %.6g, %+.1f %% [%.1f %%], %d/%d, %s |", pmed, cmed, 100*sign*wmed, 100*iqr, wins, len(ps), v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, f := range fails {
		fmt.Fprintln(w, "- FAIL:", f)
	}
	line, _ := json.Marshal(traj) // a map of plain values always marshals
	fmt.Fprintf(w, "\n%s\n", line)
	return fails
}

// verdict judges one metric on its per-pair worsening (change/parent − 1
// where lower is better, 1 − change/parent where higher is): worse when
// the median pair is worse by more than the bound and the pairs agree to
// within it, or when every pair is worse by more than the bound;
// unresolved when the pairs spread wider than the bound otherwise. It
// returns the worsening's median and IQR too.
func verdict(worse []float64, bound float64) (v string, med, iqr float64) {
	med, iqr = quartiles(worse)
	switch {
	case med > bound && iqr <= bound, !slices.ContainsFunc(worse, func(x float64) bool { return x <= bound }):
		return "**worse**", med, iqr
	case iqr > bound:
		return "unresolved", med, iqr
	}
	return "ok", med, iqr
}

// quartiles returns the median and the interquartile range of xs, by
// linear interpolation between order statistics.
func quartiles(xs []float64) (med, iqr float64) {
	s := slices.Sorted(slices.Values(xs))
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 == len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}
