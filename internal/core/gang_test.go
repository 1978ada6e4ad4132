package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// gangTestbed wires an API server, a shared gang director, and a
// scheduler fleet (1..n members) over plain registered nodes — no
// kubelets, so placement is the only moving part. events records the
// whole watch stream, from before the first node registers.
type gangTestbed struct {
	clk    *clock.Sim
	srv    *apiserver.Server
	dir    *GangDirector
	fleet  *ShardedSchedulers
	events []apiserver.WatchEvent
}

func newGangTestbed(t *testing.T, nodes int, memPerNode int64, gcfg GangConfig, shards int) *gangTestbed {
	t.Helper()
	clk := clock.NewSim()
	srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
	tb := &gangTestbed{clk: clk, srv: srv}
	t.Cleanup(srv.Subscribe(func(ev apiserver.WatchEvent) { tb.events = append(tb.events, ev) }))
	for i := 0; i < nodes; i++ {
		n := &api.Node{
			Name:        fmt.Sprintf("n%02d", i+1),
			Capacity:    resource.List{resource.Memory: memPerNode},
			Allocatable: resource.List{resource.Memory: memPerNode},
			Ready:       true,
		}
		if err := srv.RegisterNode(n); err != nil {
			t.Fatal(err)
		}
	}
	tb.dir = NewGangDirector(clk, srv, gcfg)
	fleet, err := NewSharded(clk, srv, tsdb.New(clk), Config{
		Name:   "s",
		Policy: Binpack{},
		Gang:   tb.dir,
	}, shards, false)
	if err != nil {
		t.Fatal(err)
	}
	tb.fleet = fleet
	t.Cleanup(func() {
		fleet.Close()
		tb.dir.Close()
	})
	return tb
}

// bound returns the group's live bound members, as the server counts them.
func (tb *gangTestbed) bound(group string) int {
	_, bound, _ := tb.srv.GangCounts(group)
	return bound
}

func (tb *gangTestbed) submit(t *testing.T, p *api.Pod) {
	t.Helper()
	tb.fleet.Assign(p)
	if err := tb.srv.CreatePod(p); err != nil {
		t.Fatal(err)
	}
}

func memPod(name string, mem int64, prio int32) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			Priority: prio,
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: mem}},
			}},
		},
	}
}

func memGangPod(name, group string, minMember int, mem int64, prio int32) *api.Pod {
	p := memPod(name, mem, prio)
	p.Spec.PodGroup = group
	p.Spec.MinMember = minMember
	return p
}

// TestGangWaitsForQuorumThenCommits: members below quorum hold permits
// without binding; the member that completes the quorum triggers the
// atomic whole-gang commit in the same pass.
func TestGangWaitsForQuorumThenCommits(t *testing.T) {
	tb := newGangTestbed(t, 2, resource.GiB, GangConfig{}, 1)
	for _, name := range []string{"g-a", "g-b"} {
		tb.submit(t, memGangPod(name, "g", 3, resource.MiB, 0))
	}
	tb.fleet.RunRound()

	if n := tb.srv.ReservationCount(); n != 2 {
		t.Fatalf("permits after partial gang = %d, want 2", n)
	}
	if n := tb.bound("g"); n != 0 {
		t.Fatalf("bound members before quorum = %d, want 0", n)
	}
	stats := tb.fleet.Stats()
	if stats.Held != 2 || stats.Bound != 0 {
		t.Fatalf("stats = %+v, want Held 2 Bound 0", stats)
	}

	tb.submit(t, memGangPod("g-c", "g", 3, resource.MiB, 0))
	tb.fleet.RunRound()
	var bound []string
	for _, ev := range tb.events {
		if ev.Type == apiserver.PodBound && ev.Pod.Spec.PodGroup == "g" {
			bound = append(bound, ev.Pod.Name)
		}
	}
	if got := fmt.Sprint(bound); got != "[g-a g-b g-c]" || tb.bound("g") != 3 {
		t.Fatalf("bound members after quorum = %v (%d live)", got, tb.bound("g"))
	}
	if n := tb.srv.ReservationCount(); n != 0 {
		t.Fatalf("permits after commit = %d, want 0", n)
	}
	if s := tb.dir.Stats(); s.Commits != 1 || s.Timeouts != 0 {
		t.Fatalf("director stats = %+v", s)
	}
}

// TestGangPermitTimeoutRollsBackAndRecovers: a gang stuck below quorum
// releases every permit (and all held capacity) at the sim-clock
// timeout, then schedules cleanly once the missing member arrives.
func TestGangPermitTimeoutRollsBackAndRecovers(t *testing.T) {
	tb := newGangTestbed(t, 1, resource.GiB, GangConfig{PermitTimeout: 10 * time.Second}, 1)
	for _, name := range []string{"g-a", "g-b"} {
		tb.submit(t, memGangPod(name, "g", 3, resource.MiB, 0))
	}
	tb.fleet.RunRound()
	if n := tb.srv.ReservationCount(); n != 2 {
		t.Fatalf("permits = %d, want 2", n)
	}

	tb.clk.Advance(10 * time.Second)
	// Post-hoc accounting: the rollback returned every held resource.
	if n := tb.srv.ReservationCount(); n != 0 {
		t.Fatalf("permits after timeout = %d, want 0", n)
	}
	if got := tb.srv.Committed("n01").Get(resource.Memory); got != 0 {
		t.Fatalf("committed after timeout = %d, want 0", got)
	}
	if s := tb.dir.Stats(); s.Timeouts != 1 || s.Commits != 0 {
		t.Fatalf("director stats = %+v", s)
	}
	// The one rollback announced both permits, with the director's reason.
	var released []string
	for _, ev := range tb.events {
		if ev.Pod != nil && ev.Pod.Status.Reason == "permit timeout" {
			released = append(released, ev.Pod.Name)
		}
	}
	if fmt.Sprint(released) != "[g-a g-b]" {
		t.Fatalf("permits released = %v, want [g-a g-b]", released)
	}

	tb.submit(t, memGangPod("g-c", "g", 3, resource.MiB, 0))
	// The released members are back in the queue; the next rounds reach
	// quorum and commit.
	for i := 0; i < 3 && tb.bound("g") < 3; i++ {
		tb.fleet.RunRound()
	}
	if n := tb.bound("g"); n != 3 {
		t.Fatalf("bound members after recovery = %d, want 3", n)
	}
}

// TestGangFinishedPendingMemberCountsTowardQuorum: the director watches
// no stream; a member evicted before it was ever placed reaches it
// through the server's finished count, so the other two members' permits
// are a quorum of three.
func TestGangFinishedPendingMemberCountsTowardQuorum(t *testing.T) {
	tb := newGangTestbed(t, 1, resource.GiB, GangConfig{}, 1)
	for _, name := range []string{"g-a", "g-b", "g-c"} {
		tb.submit(t, memGangPod(name, "g", 3, resource.MiB, 0))
	}
	if err := tb.srv.Evict("g-c", "gone before placement"); err != nil {
		t.Fatal(err)
	}
	tb.fleet.RunRound()
	if held, bound, finished := tb.srv.GangCounts("g"); held != 0 || bound != 2 || finished != 1 {
		t.Fatalf("GangCounts = %d held, %d bound, %d finished, want 0, 2, 1", held, bound, finished)
	}
	if s := tb.dir.Stats(); s.Commits != 1 || s.Timeouts != 0 {
		t.Fatalf("director stats = %+v, want one commit", s)
	}
}

// TestGangDirectorCloseStopsPermitTimers: Close stops the armed permit
// timers, so a gang holding permits below quorum keeps them past the
// timeout.
func TestGangDirectorCloseStopsPermitTimers(t *testing.T) {
	tb := newGangTestbed(t, 1, resource.GiB, GangConfig{}, 1)
	for _, name := range []string{"g-a", "g-b"} {
		tb.submit(t, memGangPod(name, "g", 3, resource.MiB, 0))
	}
	tb.fleet.RunRound()
	if n := tb.srv.ReservationCount(); n != 2 {
		t.Fatalf("permits = %d, want 2", n)
	}
	tb.dir.Close()
	tb.clk.Advance(DefaultPermitTimeout + time.Second)
	if n := tb.srv.ReservationCount(); n != 2 {
		t.Fatalf("permits after the timeout = %d, want 2: a closed director released them", n)
	}
	if s := tb.dir.Stats(); s.Timeouts != 0 {
		t.Fatalf("director stats = %+v, want no timeout", s)
	}
}

// TestGangPreFilterGatesImpossibleGangs: when the cluster cannot possibly
// hold the group's remaining members, no member takes a permit — gated
// gangs must not camp on capacity they can never complete with.
func TestGangPreFilterGatesImpossibleGangs(t *testing.T) {
	tb := newGangTestbed(t, 1, 2*resource.MiB, GangConfig{}, 1)
	for _, name := range []string{"g-a", "g-b", "g-c"} {
		tb.submit(t, memGangPod(name, "g", 3, resource.MiB, 0))
	}
	tb.fleet.RunRound()
	stats := tb.fleet.Stats()
	if stats.Gated != 3 || stats.Held != 0 {
		t.Fatalf("stats = %+v, want Gated 3 Held 0", stats)
	}
	if n := tb.srv.ReservationCount(); n != 0 {
		t.Fatalf("permits = %d, want 0 (gang cannot fit)", n)
	}
}

// TestGangProtocolInEveryClassSlot pins the gang protocol by behaviour:
// under a scheduler with a gang director, a gang member below quorum is
// held — reserved, not bound — in whichever class slot it is classed,
// while a solo pod in the same pass binds; under a scheduler with no
// director the same members bind at once.
func TestGangProtocolInEveryClassSlot(t *testing.T) {
	for _, withDirector := range []bool{true, false} {
		t.Run(fmt.Sprintf("director=%v", withDirector), func(t *testing.T) {
			clk := clock.NewSim()
			srv := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
			defer srv.Close()
			for _, name := range []string{"n1", "n2"} {
				alloc := resource.List{resource.Memory: 10 * resource.GiB}
				if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Name: "s", Policy: Binpack{}}
			if withDirector {
				cfg.Gang = NewGangDirector(clk, srv, GangConfig{})
				defer cfg.Gang.Close()
			}
			sched, err := New(clk, srv, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sched.Close()
			for _, class := range api.Classes {
				p := memGangPod(fmt.Sprintf("m-%d", class.Slot()), fmt.Sprintf("g-%d", class.Slot()), 2, resource.GiB, 0)
				p.Spec.Class, p.Spec.SchedulerName = class, "s"
				if err := srv.CreatePod(p); err != nil {
					t.Fatal(err)
				}
			}
			solo := memPod("solo", resource.GiB, 0)
			solo.Spec.SchedulerName = "s"
			if err := srv.CreatePod(solo); err != nil {
				t.Fatal(err)
			}
			sched.ScheduleOnce()

			if p, _ := srv.GetPod("solo"); p.Spec.NodeName == "" {
				t.Fatal("the solo pod did not bind")
			}
			st := sched.Stats()
			for _, class := range api.Classes {
				held, bound, _ := srv.GangCounts(fmt.Sprintf("g-%d", class.Slot()))
				if withDirector && (held != 1 || bound != 0 || st.Class(class).Held != 1) {
					t.Errorf("slot %d member: held %d, bound %d, class stats %+v; want held, not bound",
						class.Slot(), held, bound, st.Class(class))
				}
				if !withDirector && (held != 0 || bound != 1) {
					t.Errorf("slot %d member: held %d, bound %d; want bound at once", class.Slot(), held, bound)
				}
			}
			wantBound, wantHeld := 5, 0
			if withDirector {
				wantBound, wantHeld = 1, 4
			}
			if st.Bound != wantBound || st.Held != wantHeld {
				t.Errorf("pass bound %d and held %d, want %d and %d", st.Bound, st.Held, wantBound, wantHeld)
			}
		})
	}
}

// TestGangStarvationBoost: admit raises a waiting gang member's
// pass-local priority by one tier per DefaultBoostEvery of group age,
// capped at DefaultMaxBoost, without rewriting the pod's declared priority.
func TestGangStarvationBoost(t *testing.T) {
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	dir := NewGangDirector(clk, srv, GangConfig{})
	defer dir.Close()
	pod := memGangPod("g-a", "g", 2, resource.MiB, 5)
	view := &ClusterView{Nodes: []*NodeView{{
		Name:        "n1",
		Allocatable: resource.List{resource.Memory: resource.GiB},
		Used:        resource.List{},
	}}}

	info := newPodInfo(pod)
	if !dir.admit(info, view) {
		t.Fatal("feasible gang member gated")
	}
	if info.Priority != 5 {
		t.Fatalf("fresh gang boosted: priority = %d, want 5", info.Priority)
	}

	clk.Advance(2 * time.Minute)
	info = newPodInfo(pod)
	dir.admit(info, view)
	if info.Priority != 7 {
		t.Fatalf("priority after 2min = %d, want 7", info.Priority)
	}

	clk.Advance(time.Hour)
	info = newPodInfo(pod)
	dir.admit(info, view)
	if info.Priority != 5+DefaultMaxBoost {
		t.Fatalf("priority after an hour = %d, want %d (capped at +%d)", info.Priority, 5+DefaultMaxBoost, DefaultMaxBoost)
	}
	if pod.Spec.Priority != 5 {
		t.Fatalf("declared priority mutated: %d", pod.Spec.Priority)
	}
}

// checkNoPartialGang applies an event stream to the reference model
// prefix by prefix and fails on any refusal, and on any prefix that
// observes a partially committed gang with a foreign event interleaved:
// once a group's commit burst starts (first PodBound while co-members
// still hold permits), every following event must be another PodBound of
// the same group until no permits remain — the replay witness that
// CommitGroup is atomic under the world ladder. Once settled (no permits
// outstanding), a gang is whole or not placed at all (model.Gang.Partial).
func checkNoPartialGang(t *testing.T, events []apiserver.WatchEvent) {
	t.Helper()
	m := model.New(apiserver.AdmitStrict)
	for i, ev := range events {
		if err := m.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Pod == nil || !ev.Pod.Spec.InGang() {
			continue
		}
		name := ev.Pod.Spec.PodGroup
		g := m.Gangs[name]
		held, bound, finished := g.Count()
		if bound > 0 && held > 0 {
			if i+1 >= len(events) {
				t.Fatalf("event stream ends with gang %s partially committed (%d bound, %d held)", name, bound, held)
			}
			next := events[i+1]
			if next.Type != apiserver.PodBound || next.Pod == nil || next.Pod.Spec.PodGroup != name {
				t.Fatalf("event %d: gang %s partially committed (%d bound, %d held) with foreign event %v interleaved",
					i, name, bound, held, next.Type)
			}
		}
		if g.Partial() {
			t.Fatalf("event %d: gang %s settled at %d/%d members bound (%d finished)", i, name, bound, g.MinMember, finished)
		}
	}
}

// TestGangNeverPartiallyBoundAcrossEventPrefixes: the replay-witness
// property over a churning single-scheduler run — every event-stream
// prefix sees each gang either fully committed, mid-atomic-burst, or not
// placed at all. Solo pods interleave freely throughout.
func TestGangNeverPartiallyBoundAcrossEventPrefixes(t *testing.T) {
	tb := newGangTestbed(t, 4, 8*resource.MiB, GangConfig{PermitTimeout: 5 * time.Second}, 1)
	k := 3
	for wave := 0; wave < 4; wave++ {
		group := fmt.Sprintf("gang-%d", wave)
		for m := 0; m < k; m++ {
			tb.submit(t, memGangPod(fmt.Sprintf("%s-m%d", group, m), group, k, resource.MiB, 0))
		}
		for s := 0; s < 2; s++ {
			tb.submit(t, memPod(fmt.Sprintf("solo-%d-%d", wave, s), resource.MiB, 0))
		}
		tb.fleet.RunRound()
		tb.clk.Advance(time.Second)
	}
	for i := 0; i < 6; i++ {
		tb.fleet.RunRound()
		tb.clk.Advance(2 * time.Second)
	}

	checkNoPartialGang(t, tb.events)
	if n := tb.srv.ReservationCount(); n != 0 {
		t.Fatalf("permits outstanding at end = %d, want 0", n)
	}
}

// TestGangShardedContentionNoPartialBinding: two schedulers share the
// gang director; gang members hash across both, so quorum needs permits
// from different members' passes. The same prefix property must hold
// under the contention, and runs must be deterministic.
func TestGangShardedContentionNoPartialBinding(t *testing.T) {
	run := func() ([]apiserver.WatchEvent, int) {
		tb := newGangTestbed(t, 4, 8*resource.MiB, GangConfig{PermitTimeout: 5 * time.Second}, 2)
		groups := []string{"cgang-0", "cgang-1", "cgang-2"}
		for wave, group := range groups {
			for m := 0; m < 4; m++ {
				tb.submit(t, memGangPod(fmt.Sprintf("%s-m%d", group, m), group, 4, resource.MiB, 0))
			}
			tb.submit(t, memPod(fmt.Sprintf("csolo-%d", wave), resource.MiB, 0))
			tb.fleet.RunRound()
			tb.clk.Advance(time.Second)
		}
		for i := 0; i < 8; i++ {
			tb.fleet.RunRound()
			tb.clk.Advance(2 * time.Second)
		}
		checkNoPartialGang(t, tb.events)
		if n := tb.srv.ReservationCount(); n != 0 {
			t.Fatalf("permits outstanding at end = %d, want 0", n)
		}
		bound := 0
		for _, g := range groups {
			bound += tb.bound(g)
		}
		return tb.events, bound
	}

	evA, boundA := run()
	evB, boundB := run()
	if boundA != boundB || len(evA) != len(evB) {
		t.Fatalf("nondeterministic: run A bound %d (%d events), run B bound %d (%d events)",
			boundA, len(evA), boundB, len(evB))
	}
	for i := range evA {
		if evA[i].Type != evB[i].Type || evA[i].Pod == nil != (evB[i].Pod == nil) {
			t.Fatalf("event %d diverges between identical runs", i)
		}
	}
	// The member split really crossed schedulers: at least one gang must
	// have members on both shards.
	split := false
	for wave := 0; wave < 3 && !split; wave++ {
		first := ShardIndex(fmt.Sprintf("cgang-%d-m0", wave), 2)
		for m := 1; m < 4; m++ {
			if ShardIndex(fmt.Sprintf("cgang-%d-m%d", wave, m), 2) != first {
				split = true
				break
			}
		}
	}
	if !split {
		t.Fatal("test vacuous: no gang straddled the two schedulers")
	}
}

// TestGangPreemptionEvictsWholeGang: a high-priority solo pod that needs
// the space displaces the entire low-priority gang — bound members
// everywhere, not just on the candidate node — or nothing.
func TestGangPreemptionEvictsWholeGang(t *testing.T) {
	tb := newGangTestbed(t, 2, 2*resource.MiB, GangConfig{}, 1)
	for m := 0; m < 4; m++ {
		tb.submit(t, memGangPod(fmt.Sprintf("g-m%d", m), "g", 4, resource.MiB, 0))
	}
	tb.fleet.RunRound()
	if n := tb.bound("g"); n != 4 {
		t.Fatalf("gang not placed: %d/4 bound", n)
	}

	tb.submit(t, memPod("vip", 2*resource.MiB, 10))
	for i := 0; i < 3; i++ {
		tb.fleet.RunRound()
	}
	vip, _ := tb.srv.GetPod("vip")
	if vip.Spec.NodeName == "" {
		t.Fatal("high-priority pod not placed by gang preemption")
	}
	if n := tb.bound("g"); n != 0 {
		t.Fatalf("gang partially survived preemption: %d members still bound", n)
	}
	// One PreemptGroup evicted the gang: its four members went back to the
	// queue at consecutive revs, with no foreign commit in between.
	var evicted []apiserver.WatchEvent
	for _, ev := range tb.events {
		if ev.Type == apiserver.PodUpdated && ev.Pod.Spec.PodGroup == "g" && ev.Pod.Status.Phase == api.PodPending {
			evicted = append(evicted, ev)
		}
	}
	if len(evicted) != 4 {
		t.Fatalf("%d gang members re-queued, want 4", len(evicted))
	}
	for i, ev := range evicted {
		if i > 0 && ev.Rev != evicted[i-1].Rev+1 {
			t.Fatalf("evictions at revs %d then %d: not one atomic step", evicted[i-1].Rev, ev.Rev)
		}
	}
}
