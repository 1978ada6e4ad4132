package cgroup

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestCgroupPath(t *testing.T) {
	p := ForPod(1, "p")
	if got := p.Path(); got != "/kubepods/pod-uid-000001" {
		t.Fatalf("Path = %q", got)
	}
	anon := ForPod(0, "x")
	if got := anon.Path(); got != "/kubepods/pod-x" {
		t.Fatalf("Path without UID = %q", got)
	}
	// Distinct pods get distinct paths (§V-D requirement ii).
	q := ForPod(2, "p")
	if p.Path() == q.Path() {
		t.Fatal("distinct pods share a cgroup path")
	}
}

// TestCgroupPathMatchesSprintf: a pod's cgroup path is fmt.Sprintf's
// "/kubepods/pod-uid-%06d" of its UID, byte for byte, at the edges of the
// padding, at the extremes of int64 and at random values of either sign;
// UID 0 falls back to the pod's name.
func TestCgroupPathMatchesSprintf(t *testing.T) {
	uids := []int64{1, 9, 10, 99_999, 100_000, 999_999, 1_000_000, math.MaxInt64,
		-1, -9_999, -10_000, -99_999, -100_000, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		uids = append(uids, rng.Int63()>>rng.Intn(63)|1, -(rng.Int63()>>rng.Intn(63) | 1))
	}
	for _, uid := range uids {
		cg := ForPod(uid, "ignored")
		if got, want := cg.Path(), fmt.Sprintf("/kubepods/pod-uid-%06d", uid); got != want {
			t.Fatalf("Path of UID %d = %q, want %q", uid, got, want)
		}
	}
	for _, name := range []string{"job-000001", "uid-000001", "", "0"} {
		cg := ForPod(0, name)
		if got, want := cg.Path(), "/kubepods/pod-"+name; got != want {
			t.Fatalf("Path of UID 0, name %q = %q, want %q", name, got, want)
		}
	}
}
