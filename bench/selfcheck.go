package main

import (
	"fmt"
	"io"
	"slices"
)

// selfcheck is the A/A test: the whole suite twice on the same code and
// seed, the second time in reverse workload order, and every end-to-end
// metric compared across the two within its own bound. The simulated-time
// metrics and the sim digest must agree exactly. A bound the benchmark
// misses on itself is a bound no later change can be held to.
func selfcheck(selected []workload, o options, sc scale, out io.Writer) error {
	measureAll := func(order []workload) (map[string]result, error) {
		out := make(map[string]result, len(order))
		for _, w := range order {
			res, err := measureUntraced(w, o, sc)
			if err != nil {
				return nil, err
			}
			out[w.name()] = res
		}
		return out, nil
	}
	first, err := measureAll(selected)
	if err != nil {
		return err
	}
	reversed := slices.Clone(selected)
	slices.Reverse(reversed)
	second, err := measureAll(reversed)
	if err != nil {
		return err
	}

	misses := 0
	for _, w := range selected {
		a, b := first[w.name()], second[w.name()]
		fmt.Fprintf(out, "\n%s — A/A, %d and %d reps\n", w.name(), a.reps, b.reps)
		if a.digest != b.digest {
			misses++
			fmt.Fprintf(out, "  sim_digest %016x vs %016x MISS: equal seeds must replay identically\n", a.digest, b.digest)
		}
		// Simulated time repeats exactly, so it is compared over the reps
		// both runs completed, which had the same inputs.
		n := min(len(a.run.reps), len(b.run.reps))
		simA := scopedValues(runResult{reps: a.run.reps[:n]})
		simB := scopedValues(runResult{reps: b.run.reps[:n]})
		for _, d := range a.defs {
			va, vb, ok := valueOf(a, d.Name), valueOf(b, d.Name), true
			bound := d.Bound
			if d.Unit == simSeconds {
				va, vb = simA[d.Name].Value, simB[d.Name].Value
			}
			spread := worsening(d.Better, va, vb)
			if spread > bound {
				ok = false
				misses++
			}
			verdict := "ok"
			if !ok {
				verdict = "MISS"
			}
			fmt.Fprintf(out, "  %-22s %14.6g %14.6g %-6s spread=%.2f%% bound=%g%% %s\n", d.Name, va, vb, d.Unit, 100*spread, 100*bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", misses)
	}
	fmt.Fprintln(out, "\nselfcheck: every end-to-end metric agrees within its bound")
	return nil
}

func valueOf(r result, name string) float64 {
	if m, ok := r.Metrics[name]; ok {
		return m.Value
	}
	return r.scoped[name].Value
}

// worsening is how far apart two readings of a metric lie, as a share of
// the better one — the quantity a regression bound limits.
func worsening(better string, a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if better == "higher" {
		return ratio(hi-lo, hi)
	}
	return ratio(hi-lo, lo)
}
