// Package golden pins behaviour across commits. The determinism tests
// compare a run with itself, so a refactor that moves a placement the
// same way in both runs passes them; folding the recorded sequence into
// a digest and asserting it against a literal constant turns the same
// test into a differential against every earlier commit.
package golden

import (
	"fmt"
	"hash/fnv"
)

// StreamDigest folds a recorded sequence (watch events, bind history,
// per-job outcomes — one formatted line each) into its FNV-1a 64-bit
// digest. Order and line boundaries count.
func StreamDigest(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
