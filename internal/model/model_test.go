package model

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func registered(name string, alloc resource.List) apiserver.WatchEvent {
	return apiserver.WatchEvent{Type: apiserver.NodeRegistered, Node: &api.Node{Name: name, Allocatable: alloc}}
}

func newPod(name string, req resource.List) *api.Pod {
	return &api.Pod{Name: name, Spec: api.PodSpec{Containers: []api.Container{{Resources: api.Requirements{Requests: req}}}}}
}

func gangPod(name, group string, minMember int, req resource.List) *api.Pod {
	p := newPod(name, req)
	p.Spec.PodGroup, p.Spec.MinMember = group, minMember
	return p
}

// event is a pod event carrying p as the server would: placed on node (or
// unplaced, ""), in phase.
func event(typ apiserver.WatchEventType, p *api.Pod, node string, phase api.PodPhase) apiserver.WatchEvent {
	q := *p
	q.Spec.NodeName, q.Status.Phase = node, phase
	return apiserver.WatchEvent{Type: typ, Pod: &q}
}

// feed applies evs at the model's next revs and fails on any refusal.
func feed(t *testing.T, m *Cluster, evs ...apiserver.WatchEvent) {
	t.Helper()
	for _, ev := range evs {
		if err := next(m, ev); err != nil {
			t.Fatal(err)
		}
	}
}

// next applies ev at the model's next rev.
func next(m *Cluster, ev apiserver.WatchEvent) error {
	ev.Rev = m.rev + 1
	return m.Apply(ev)
}

func TestRevFollowsLastRev(t *testing.T) {
	m := New(apiserver.AdmitStrict)
	n := registered("n", resource.List{})
	for _, step := range []struct {
		rev int64
		ok  bool
	}{
		{5, true}, // the first event sets the base
		{6, true},
		{8, false}, // a gap is one error…
		{9, true},  // …and the stream resumes after it
		{9, false}, // a duplicate
		{3, false}, // a regression does not move the base back
		{10, true},
	} {
		n.Rev = step.rev
		if err := m.Apply(n); (err == nil) != step.ok || (err != nil && !errors.Is(err, ErrRev)) {
			t.Fatalf("rev %d after %d: err = %v, want ok = %v", step.rev, m.rev, err, step.ok)
		}
	}
}

// TestCommittedReturnsToZeroAndNeverNegative: a terminal update gives a
// bind's charge back, so a second pod of the same size then fits a node
// it fills exactly; and a charge that would leave a commitment negative is
// one refusal, however many resources it breaks, that changes nothing.
func TestCommittedReturnsToZeroAndNeverNegative(t *testing.T) {
	req := resource.List{resource.Memory: resource.GiB, resource.EPCPages: 100}
	a, b := newPod("a", req), newPod("b", req)
	m := New(apiserver.AdmitStrict)
	feed(t, m, registered("n", req), event(apiserver.PodBound, a, "n", api.PodPending))
	if got := m.Nodes["n"].Committed; got != req {
		t.Fatalf("committed after bind = %v, want %v", got, req)
	}
	feed(t, m, event(apiserver.PodUpdated, a, "n", api.PodSucceeded))
	if got := m.Nodes["n"].Committed; got != (resource.List{}) {
		t.Fatalf("committed after the terminal update = %v, want zero", got)
	}
	feed(t, m, event(apiserver.PodBound, b, "n", api.PodPending))
	if m.Pods["a"].placed() || m.Pods["b"].Charge != req || m.Total.Committed != req {
		t.Fatalf("a placed %v, b holds %v, total %v", m.Pods["a"].placed(), m.Pods["b"].Charge, m.Total.Committed)
	}

	neg := newPod("neg", resource.List{resource.Memory: -2 * resource.GiB, resource.EPCPages: -200})
	err := next(m, event(apiserver.PodBound, neg, "n", api.PodPending))
	if !errors.Is(err, ErrNegative) {
		t.Fatalf("negative charge err = %v, want ErrNegative", err)
	}
	if _, known := m.Pods["neg"]; known || m.Nodes["n"].Committed != req {
		t.Fatalf("refused charge changed the model: pod known %v, committed %v", known, m.Nodes["n"].Committed)
	}
}

func TestChargeTakenTwice(t *testing.T) {
	mem := resource.List{resource.Memory: 1}
	a, g := newPod("a", mem), gangPod("g", "grp", 1, mem)
	m := New(apiserver.AdmitStrict)
	feed(t, m, registered("n", resource.List{resource.Memory: 10}),
		event(apiserver.PodBound, a, "n", api.PodPending),
		event(apiserver.PodPermitHeld, g, "n", api.PodPending))
	for _, ev := range []apiserver.WatchEvent{
		event(apiserver.PodBound, a, "n", api.PodPending),
		event(apiserver.PodPermitHeld, a, "n", api.PodPending),
		event(apiserver.PodPermitHeld, g, "n", api.PodPending),
	} {
		if err := next(m, ev); !errors.Is(err, ErrChargedTwice) {
			t.Fatalf("%v of %s: err = %v, want ErrChargedTwice", ev.Type, ev.Pod.Name, err)
		}
	}
	if got := m.Nodes["n"].Committed[resource.Memory]; got != 2 {
		t.Fatalf("committed = %d, want the two first charges", got)
	}
}

// TestGangCommitStaysOnPermitNode: the commit binds a member onto the
// capacity its permit charged and moves none; a commit onto another node
// is refused and charges nothing there.
func TestGangCommitStaysOnPermitNode(t *testing.T) {
	mem := resource.List{resource.Memory: 4}
	g := gangPod("g", "grp", 1, mem)
	m := New(apiserver.AdmitStrict)
	feed(t, m, registered("n1", mem), registered("n2", mem),
		event(apiserver.PodCreated, g, "", api.PodPending),
		event(apiserver.PodPermitHeld, g, "n1", api.PodPending))
	if err := next(m, event(apiserver.PodBound, g, "n2", api.PodPending)); !errors.Is(err, ErrCommitNode) {
		t.Fatalf("commit onto n2 err = %v, want ErrCommitNode", err)
	}
	feed(t, m, event(apiserver.PodBound, g, "n1", api.PodPending))
	if n1, n2 := m.Nodes["n1"].Committed, m.Nodes["n2"].Committed; n1 != mem || n2 != (resource.List{}) {
		t.Fatalf("committed n1 = %v, n2 = %v; want the permit's charge on n1 alone", n1, n2)
	}
	if p := m.Pods["g"]; p.Held || p.Charge != mem || p.Node != "n1" {
		t.Fatalf("committed member = %+v", *p)
	}
	feed(t, m, event(apiserver.PodUpdated, g, "n1", api.PodSucceeded))
	if m.Total.Committed != (resource.List{}) {
		t.Fatalf("committed after the member finished = %v", m.Total.Committed)
	}
}

// TestAdmissionBoundsByMode: what a commitment may reach follows the
// server's admission mode, and a node the stream never described has no
// allocatable.
func TestAdmissionBoundsByMode(t *testing.T) {
	alloc := resource.List{resource.CPU: 10, resource.Memory: 10, resource.EPCPages: 10}
	for _, tc := range []struct {
		mode apiserver.Admission
		node string
		req  resource.List
		want error
	}{
		{apiserver.AdmitGuarded, "n", resource.List{resource.Memory: 11, resource.CPU: 11}, nil},
		{apiserver.AdmitGuarded, "n", resource.List{resource.EPCPages: 11}, ErrOvercommit},
		{apiserver.AdmitGuarded, "ghost", resource.List{resource.EPCPages: 1}, ErrOvercommit},
		{apiserver.AdmitGuarded, "ghost", resource.List{resource.Memory: 1}, nil},
		{apiserver.AdmitStrict, "n", resource.List{resource.EPCPages: 10, resource.Memory: 10, resource.CPU: 10}, nil},
		{apiserver.AdmitStrict, "n", resource.List{resource.Memory: 11}, ErrOvercommit},
		{apiserver.AdmitStrict, "n", resource.List{resource.CPU: 11}, ErrOvercommit},
	} {
		m := New(tc.mode)
		feed(t, m, registered("n", alloc))
		if err := next(m, event(apiserver.PodBound, newPod("p", tc.req), tc.node, api.PodPending)); !errors.Is(err, tc.want) {
			t.Errorf("mode %d, %v on %s: err = %v, want %v", tc.mode, tc.req, tc.node, err, tc.want)
		}
	}
}

// TestSettledGangCountsFinishedMembers: bound plus finished members make
// a settled gang whole, so a committed gang whose first member finishes
// before the others is not partial; a gang bound short of its quorum with
// no permit left to complete it is.
func TestSettledGangCountsFinishedMembers(t *testing.T) {
	mem := resource.List{resource.Memory: 1}
	t0 := time.Unix(1000, 0)
	a, b := gangPod("a", "g", 2, mem), gangPod("b", "g", 2, mem)
	a.Status.SubmittedAt, b.Status.SubmittedAt = t0, t0.Add(time.Second)
	commit := func(p *api.Pod, at time.Time) apiserver.WatchEvent {
		ev := event(apiserver.PodBound, p, "n", api.PodPending)
		ev.Pod.Status.ScheduledAt = at
		return ev
	}
	m := New(apiserver.AdmitStrict)
	feed(t, m, registered("n", resource.List{resource.Memory: 10}),
		event(apiserver.PodCreated, a, "", api.PodPending),
		event(apiserver.PodCreated, b, "", api.PodPending),
		event(apiserver.PodPermitHeld, a, "n", api.PodPending),
		event(apiserver.PodPermitHeld, b, "n", api.PodPending),
		commit(a, t0.Add(5*time.Second)))
	g := m.Gangs["g"]
	if held, bound, _ := g.Count(); held != 1 || bound != 1 || g.Partial() || !g.FullAt.IsZero() {
		t.Fatalf("mid-commit gang: %d held, %d bound, partial %v, full at %v", held, bound, g.Partial(), g.FullAt)
	}
	feed(t, m, commit(b, t0.Add(5*time.Second)), event(apiserver.PodUpdated, a, "n", api.PodSucceeded))
	if held, bound, finished := g.Count(); held != 0 || bound != 1 || finished != 1 || g.Partial() {
		t.Fatalf("committed gang with a finished member: %d held, %d bound, %d finished, partial %v", held, bound, finished, g.Partial())
	}
	if g.MinMember != 2 || g.SubmittedAt != t0 || g.FullAt != t0.Add(5*time.Second) {
		t.Fatalf("gang quorum %d, submitted %v, full at %v", g.MinMember, g.SubmittedAt, g.FullAt)
	}

	// Binds that bypass the permits leave a gang short of its quorum.
	c := gangPod("c", "h", 3, mem)
	feed(t, m, event(apiserver.PodBound, c, "n", api.PodPending))
	if !m.Gangs["h"].Partial() {
		t.Fatal("gang bound at 1/3 with no permits is not partial")
	}
}

// TestPendingOrderAndTransitions: the queue is priority, then entry rev —
// a preempted pod and a rolled-back permit re-enter at the tail of their
// tier — and every bind, run and preemption is counted for its class. A
// second Running event for a pod held Running is refused (the server
// publishes one per binding) and changes neither the pod nor a tally.
func TestPendingOrderAndTransitions(t *testing.T) {
	mem := resource.List{resource.Memory: 1}
	a, b, c := newPod("a", mem), newPod("b", mem), newPod("c", mem)
	b.Spec.Priority = 5
	a.Spec.Class = api.ClassBatch
	g := gangPod("g", "grp", 2, mem)
	m := New(apiserver.AdmitStrict)
	feed(t, m, registered("n", resource.List{resource.Memory: 10}))
	for _, p := range []*api.Pod{a, g, b, c} {
		feed(t, m, event(apiserver.PodCreated, p, "", api.PodPending))
	}
	if got, want := m.Pending(), []string{"b", "a", "g", "c"}; !slices.Equal(got, want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	feed(t, m,
		event(apiserver.PodBound, a, "n", api.PodPending),
		event(apiserver.PodUpdated, a, "n", api.PodRunning),
		event(apiserver.PodUpdated, a, "", api.PodPending), // preempted
		event(apiserver.PodPermitHeld, g, "n", api.PodPending),
		event(apiserver.PodPermitReleased, g, "", api.PodPending))
	if got, want := m.Pending(), []string{"b", "c", "a", "g"}; !slices.Equal(got, want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	feed(t, m,
		event(apiserver.PodBound, a, "n", api.PodPending),
		event(apiserver.PodUpdated, a, "n", api.PodRunning))
	want := Transitions{Binds: 2, Runs: 2, Preemptions: 1}
	pod, total := *m.Pods["a"], m.Total
	if err := next(m, event(apiserver.PodUpdated, a, "n", api.PodRunning)); !errors.Is(err, ErrRunTwice) {
		t.Fatalf("second Running event: err = %v, want ErrRunTwice", err)
	}
	if *m.Pods["a"] != pod || m.Total != total || m.ByClass[api.ClassBatch.Slot()] != want {
		t.Fatalf("a refused Running event changed the model: pod %+v, total %+v, batch %+v",
			*m.Pods["a"], m.Total, m.ByClass[api.ClassBatch.Slot()])
	}
	feed(t, m, event(apiserver.PodUpdated, a, "n", api.PodSucceeded))
	if got := m.ByClass[api.ClassBatch.Slot()]; got != want {
		t.Fatalf("batch transitions = %+v, want %+v", got, want)
	}
	if got := m.ByClass[api.ClassUnspecified.Slot()]; got != (Transitions{}) {
		t.Fatalf("unclassified transitions = %+v, want none", got)
	}
	if m.Total.Committed != (resource.List{}) {
		t.Fatalf("committed at the end = %v", m.Total.Committed)
	}
}
