package cgroup

import "testing"

func TestCgroupPath(t *testing.T) {
	p := ForPod("uid-1", "p")
	if got := p.Path(); got != "/kubepods/pod-uid-1" {
		t.Fatalf("Path = %q", got)
	}
	anon := ForPod("", "x")
	if got := anon.Path(); got != "/kubepods/pod-x" {
		t.Fatalf("Path without UID = %q", got)
	}
	// Distinct pods get distinct paths (§V-D requirement ii).
	q := ForPod("uid-2", "p")
	if p.Path() == q.Path() {
		t.Fatal("distinct pods share a cgroup path")
	}
}
