package golden

import "testing"

func TestStreamDigest(t *testing.T) {
	// FNV-1a 64 offset basis: the digest of nothing.
	if got := StreamDigest(nil); got != "cbf29ce484222325" {
		t.Fatalf("empty digest = %s", got)
	}
	ab := StreamDigest([]string{"a", "b"})
	if ab != StreamDigest([]string{"a", "b"}) {
		t.Fatal("digest not reproducible")
	}
	if ab == StreamDigest([]string{"b", "a"}) {
		t.Fatal("digest ignores order")
	}
	if ab == StreamDigest([]string{"ab"}) {
		t.Fatal("digest ignores line boundaries")
	}
}
