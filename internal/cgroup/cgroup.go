// Package cgroup is a pod's control group on its node: the one record the
// node layers keep their per-pod figures on. "All containers in a pod
// share the same cgroup path, but distinct pods use different ones"
// (§V-D).
//
// The kubelet builds one record per admitted pod and hands it down to the
// machine, the SGX package, the isgx driver and the device plugin. As a
// kernel finds a task's cgroup as an object, no layer looks a pod up by
// its path; the path is formed for output alone. Each layer owns its
// fields and writes them under the lock it already takes for its own
// totals, so a node total and the pod's share of it move in one critical
// section (the cgroup-fields-owned-by-their-layer rule in arch_test.go).
package cgroup

import "strconv"

// Cgroup is one pod's control group.
type Cgroup struct {
	// UID is the pod's API server serial (api.Pod.UID), which names the
	// cgroup; 0 when the pod has none, and Name names it instead.
	UID  int64
	Name string
	// VMBytes is the virtual memory of the cgroup's live processes,
	// owned by internal/machine under Machine.mu.
	VMBytes int64
	// CommittedPages is the EPC its live enclaves commit, paged pages
	// included, owned by internal/sgx under Package.mu.
	CommittedPages int64
	// LimitPages is the EPC limit set through the driver's write-once
	// ioctl once Limited is true, owned by internal/isgx under Driver.mu.
	LimitPages int64
	Limited    bool
	// DevicePages is the EPC page items the device plugin granted, owned
	// by internal/deviceplugin under SGXPlugin.mu.
	DevicePages int64
}

// ForPod returns the record of the pod with the given UID and name.
func ForPod(uid int64, name string) Cgroup {
	if uid == 0 {
		return Cgroup{Name: name}
	}
	return Cgroup{UID: uid}
}

// Path is the cgroup's path, for output and error texts:
// fmt.Sprintf("/kubepods/pod-uid-%06d", c.UID), byte for byte, without
// boxing the UID (the sign, when there is one, counts toward the six
// places and the zeros follow it), or "/kubepods/pod-" and the name when
// the UID is 0.
func (c *Cgroup) Path() string {
	const prefix = "/kubepods/pod-"
	if c.UID == 0 {
		return prefix + c.Name
	}
	var buf [len(prefix) + len("uid-") + 20]byte // 20: "-9223372036854775808"
	b := append(buf[:0], prefix+"uid-"...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], c.UID, 10)
	width := 6
	if d[0] == '-' {
		b = append(b, '-')
		d, width = d[1:], width-1
	}
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}
