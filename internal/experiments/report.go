package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Render writes a plain-text rendition of the figure: title, notes, and
// each series as an X/Y(/±CI) table. Long series are downsampled to at
// most maxRows rows to stay readable; pass 0 for the default (24).
func (f Figure) Render(w io.Writer, maxRows int) error {
	if maxRows <= 0 {
		maxRows = 24
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "   x: %s | y: %s\n", f.XLabel, f.YLabel)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	for _, s := range f.Series {
		fmt.Fprintf(&b, "-- series: %s (%d points)\n", s.Name, len(s.Points))
		idxs := sampleIndexes(len(s.Points), maxRows)
		for _, i := range idxs {
			p := s.Points[i]
			if s.CI != nil && i < len(s.CI) {
				fmt.Fprintf(&b, "   %12.3f  %12.3f  ±%.3f\n", p.X, p.Y, s.CI[i])
			} else {
				fmt.Fprintf(&b, "   %12.3f  %12.3f\n", p.X, p.Y)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sampleIndexes picks up to max evenly spaced indexes, always including
// the first and, when max allows two, the last.
func sampleIndexes(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max == 1 {
		return []int{0}
	}
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, i*(n-1)/(max-1))
	}
	return out
}
