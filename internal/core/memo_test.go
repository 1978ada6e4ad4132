package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/golden"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/monitor"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

// memoTopology is the fleet shape a memo scenario runs on.
type memoTopology int

const (
	memoFullScan memoTopology = iota // 13 nodes, every search a full scan
	memoSampled                      // 104 nodes, standard pods search the index
	memoSharded                      // 13 nodes, two round-robin members
	numMemoTopologies
)

func (tp memoTopology) String() string {
	return [...]string{"full-scan", "sampled", "sharded"}[tp]
}

// memoRun is what a scenario leaves behind: the watch stream, one line per
// event, the scheduler counters (a fleet's summed) and the first event the
// reference model refused.
type memoRun struct {
	lines   []string
	stats   Stats
	refusal error
}

// memoRace is a hook (see hooked) through which the cluster changes in
// the middle of a pass, as it does under a concurrent fleet. Armed with a
// pod to finish, it completes that pod the next time a pod's candidates
// are rated for placement: room frees up that the next sync picks up.
// Armed with a tier, it binds the racer — a pod no scheduler serves,
// filling a whole node, below every tier — onto the node the preemption
// planner replays a policy of that tier against, between plan and
// eviction: the eviction then frees no headroom, and the racer opens the
// pass's preemption gate to the tier above it.
type memoRace struct {
	srv    *apiserver.Server
	finish string
	racing bool
	tier   int32
}

func (r *memoRace) hook(pod *PodInfo, node *NodeView, view *ClusterView) {
	switch planned := view.Node(node.Name) != node; {
	case planned && r.racing && pod.Priority == r.tier:
		r.racing = false
		_ = r.srv.Bind("racer", node.Name)
	case !planned && r.finish != "":
		_ = r.srv.MarkSucceeded(r.finish)
		r.finish = ""
	}
}

// smallOffSGX keeps standard pods asking for less memory than below off
// SGX hardware, declining where its policy would fall back to an SGX
// node: a rule past the filter that depends on the request's size, so it
// vetoes a small pod's preemption on an SGX node and not a larger pod's.
type smallOffSGX struct {
	Policy
	below int64
}

func (f smallOffSGX) Select(pod *PodInfo, candidates []*NodeView, view *ClusterView) (string, bool) {
	if !pod.SGX && pod.Req[resource.Memory] < f.below && !offSGX(pod, candidates) {
		return "", false
	}
	return f.Policy.Select(pod, candidates, view)
}

// runMemoScenario drives one seeded history of randomized churn under the
// simulation clock and records what it did, with the failure memo on or
// off: pods of three tiers and four class slots, SGX and standard, some
// requesting CPU, some in gangs, some declaring best-effort; a fleet that
// starts full; metric writes, completions, cordons and clock steps between
// passes; and memoRace armed before some of them. atPass, when not nil,
// runs before every pass (every round of the sharded fleet) with the
// reference model of the stream so far.
func runMemoScenario(t *testing.T, seed int64, topo memoTopology, memo bool, atPass func(*model.Cluster, *apiserver.Server, []*Scheduler)) memoRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSim()
	srv := apiserver.New(clk)
	defer srv.Close()
	db := tsdb.New(clk)
	defer db.Close()

	var run memoRun
	ref := model.New(apiserver.AdmitGuarded)
	defer srv.Subscribe(func(ev apiserver.WatchEvent) {
		line := fmt.Sprintf("rev=%d type=%d", ev.Rev, ev.Type)
		if ev.Pod != nil {
			line += fmt.Sprintf(" pod=%s node=%s phase=%s reason=%q",
				ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase, ev.Pod.Status.Reason)
		} else {
			line += fmt.Sprintf(" node=%s ready=%v cordoned=%v", ev.Node.Name, ev.Node.Ready, ev.Node.Unschedulable)
		}
		run.lines = append(run.lines, line)
		if err := ref.Apply(ev); err != nil && run.refusal == nil {
			run.refusal = err
		}
	})()

	// Standard pods ask for 1 to 8 units of memory, 16 units fill a
	// standard node; the first pass meets a backlog that overfills the
	// fleet.
	std, sgx, stdMem, backlog, perStep := 9, 4, int64(4*resource.GiB), 40, 6
	if topo == memoSampled {
		std, sgx, stdMem, backlog, perStep = 96, 8, resource.GiB, 40, 8
	}
	unit := stdMem / 16
	var nodes []string
	register := func(name string, alloc resource.List) {
		nodes = append(nodes, name)
		if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < std; i++ {
		register(fmt.Sprintf("std-%03d", i), resource.List{resource.Memory: stdMem, resource.CPU: 4000})
	}
	for i := 0; i < sgx; i++ {
		register(fmt.Sprintf("sgx-%03d", i), resource.List{resource.Memory: 4 * resource.GiB, resource.CPU: 4000, resource.EPCPages: 2000})
	}

	dir := NewGangDirector(clk, srv, GangConfig{})
	defer dir.Close()
	race := &memoRace{srv: srv}
	cfg := Config{
		Name:       "memo",
		Policy:     smallOffSGX{Policy: hooked{Binpack{}, race.hook}, below: 4 * unit},
		UseMetrics: true,
		Gang:       dir,
	}
	var members []*Scheduler
	var pass func()
	assign := func(p *api.Pod) { p.Spec.SchedulerName = cfg.Name }
	if topo == memoSharded {
		ss, err := NewSharded(clk, srv, db, cfg, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		members, pass, assign = ss.Members(), func() { ss.RunRound() }, ss.Assign
	} else {
		s, err := New(clk, srv, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		members, pass = []*Scheduler{s}, func() { s.ScheduleOnce() }
	}
	for _, m := range members {
		m.noMemo = !memo
		ls := &m.pipelines[api.ClassLatencySensitive.Slot()]
		ls.policy = hooked{ls.policy, race.hook}
	}

	if err := srv.CreatePod(&api.Pod{Name: "racer", Spec: api.PodSpec{
		SchedulerName: "nobody",
		Priority:      -1,
		Containers:    []api.Container{{Name: "main", Resources: api.Requirements{Requests: resource.List{resource.Memory: stdMem}}}},
	}}); err != nil {
		t.Fatal(err)
	}

	var pods []string
	submit := func(p *api.Pod) {
		assign(p)
		if err := srv.CreatePod(p); err != nil {
			t.Fatal(err)
		}
		pods = append(pods, p.Name)
	}
	newPod := func(name string) *api.Pod {
		req := resource.List{resource.Memory: int64(1+rng.Intn(8)) * unit}
		if rng.Intn(4) == 0 {
			req = resource.List{resource.Memory: 64 * resource.MiB, resource.EPCPages: int64(100 + rng.Intn(900))}
		}
		if rng.Intn(4) == 0 {
			req[resource.CPU] = int64(500 + rng.Intn(1500))
		}
		return &api.Pod{Name: name, Spec: api.PodSpec{
			Priority:   [...]int32{0, 0, 5, 10}[rng.Intn(4)],
			Class:      api.Classes[rng.Intn(len(api.Classes))],
			Containers: []api.Container{{Name: "main", Resources: api.Requirements{Requests: req}}},
		}}
	}
	randomPod := func() *api.Pod {
		p, _ := srv.GetPod(pods[rng.Intn(len(pods))])
		return p
	}

	// Every node starts about full of one tier's pods, the upper tiers on
	// standard nodes and the lower on SGX nodes, so that a pod finds
	// victims on some nodes and none on others.
	for i, node := range nodes {
		tier, free := [...]int32{5, 10, 10}[rng.Intn(3)], stdMem
		if i >= std {
			tier, free = [...]int32{0, 0, 5}[rng.Intn(3)], 4*resource.GiB
		}
		for {
			p := newPod(fmt.Sprintf("p%03d", len(pods)))
			if p.IsSGX() && i < std {
				continue
			}
			p.Spec.Priority = tier
			if free -= p.Spec.Containers[0].Resources.Requests[resource.Memory]; free < 0 {
				break
			}
			submit(p)
			if err := srv.Bind(p.Name, node); err != nil && !p.IsSGX() {
				t.Fatal(err) // out of EPC devices, an SGX pod stays queued
			}
		}
	}

	for step := 0; step < 16; step++ {
		arrivals := rng.Intn(perStep + 1)
		if step == 0 {
			arrivals = backlog
		}
		for k := arrivals; k > 0; k-- {
			name := fmt.Sprintf("p%03d", len(pods))
			if rng.Intn(8) > 0 {
				submit(newPod(name))
				continue
			}
			// A gang: members share a shape, class and tier.
			shape, size := newPod(name), 2+rng.Intn(2)
			for m := 0; m < size; m++ {
				p := &api.Pod{Name: fmt.Sprintf("%s-g%d", name, m), Spec: shape.Spec}
				p.Spec.Containers = slices.Clone(shape.Spec.Containers)
				p.Spec.PodGroup, p.Spec.MinMember = name, size
				submit(p)
			}
		}
		for k := rng.Intn(4); k > 0 && len(pods) > 0; k-- {
			switch p := randomPod(); {
			case p.Spec.NodeName == "" || p.IsTerminal():
			case p.Status.Phase == api.PodPending:
				_ = srv.MarkRunning(p.Name)
			case rng.Intn(2) == 0:
				_ = srv.MarkSucceeded(p.Name)
			}
		}
		for k := rng.Intn(6); k > 0 && len(pods) > 0; k-- {
			if p := randomPod(); p.Spec.NodeName != "" && !p.IsTerminal() {
				measurement, value := monitor.MeasurementMemory, float64(int64(rng.Intn(12))*unit)
				if rng.Intn(3) == 0 {
					measurement, value = monitor.MeasurementEPC, float64(int64(rng.Intn(1200))*resource.EPCPageSize)
				}
				db.Write(measurement, tsdb.Tags{monitor.TagPod: p.Name, monitor.TagNode: p.Spec.NodeName}, value, clk.Now())
			}
		}
		if rng.Intn(5) == 0 {
			n, _ := srv.GetNode(nodes[rng.Intn(len(nodes))])
			n = n.Clone()
			n.Unschedulable = !n.Unschedulable
			if err := srv.UpdateNode(n); err != nil {
				t.Fatal(err)
			}
		}
		race.finish = ""
		if p := randomPod(); rng.Intn(2) == 0 && p.Spec.NodeName != "" && !p.IsTerminal() {
			race.finish = p.Name
		}
		race.racing, race.tier = rng.Intn(2) == 0, [...]int32{0, 0, 0, 5, 10}[rng.Intn(5)]
		if atPass != nil {
			atPass(ref, srv, members)
		}
		pass()
		clk.Advance(time.Duration(1+rng.Intn(20)) * time.Second)
	}
	for _, m := range members {
		run.stats.add(m.Stats())
	}
	return run
}

// TestMemoMatchesExhaustiveProperty is the failure memo's referee: over 200
// seeds of randomized churn, spread over a full-scan fleet, a sampled
// fleet of 104 nodes and a two-member round-robin fleet, a scheduler with
// the memo must do exactly what one running every cycle in full does —
// the same watch stream, the same counters but the memo's own, and both
// streams consistent with the reference model.
func TestMemoMatchesExhaustiveProperty(t *testing.T) {
	var memoised, unschedulable int
	for seed := int64(1); seed <= 200; seed++ {
		topo := memoTopology(seed % int64(numMemoTopologies))
		full := runMemoScenario(t, seed, topo, false, nil)
		fast := runMemoScenario(t, seed, topo, true, nil)
		for _, run := range []memoRun{full, fast} {
			if run.refusal != nil {
				t.Fatalf("seed %d (%s): the reference model refused the stream: %v", seed, topo, run.refusal)
			}
		}
		if got, want := golden.StreamDigest(fast.lines), golden.StreamDigest(full.lines); got != want {
			i := 0
			for i < len(full.lines) && i < len(fast.lines) && full.lines[i] == fast.lines[i] {
				i++
			}
			at := func(lines []string) string {
				if i < len(lines) {
					return lines[i]
				}
				return "(end of stream)"
			}
			t.Fatalf("seed %d (%s): stream digest %s with the memo, %s without; event %d:\nexhaustive: %s\nmemoised:   %s",
				seed, topo, got, want, i, at(full.lines), at(fast.lines))
		}
		memoised += fast.stats.Memoised
		unschedulable += fast.stats.Unschedulable
		fast.stats.Memoised = 0
		if fast.stats != full.stats {
			t.Fatalf("seed %d (%s): stats differ\nexhaustive: %+v\nmemoised:   %+v", seed, topo, full.stats, fast.stats)
		}
		if full.stats.Memoised != 0 {
			t.Fatalf("seed %d (%s): the exhaustive arm memoised %d cycles", seed, topo, full.stats.Memoised)
		}
	}
	if memoised == 0 || memoised == unschedulable {
		t.Fatalf("the memo proved %d of %d unschedulable cycles: the property is vacuous", memoised, unschedulable)
	}
}

// TestMemoSkipsDominatedPods pins what the memo saves. Every node is full
// of pods in the pending pods' tier plus one lower-tier pod too small to
// make room, so each pod that runs its cycle filters every node and plans
// victims on every node in vain. A pass over 500 such pods of shuffled
// sizes runs one real cycle per new smallest request — a pod smaller than
// every one before it — and proves each of the others from the memo.
func TestMemoSkipsDominatedPods(t *testing.T) {
	const nodes, pending = 8, 500
	_, srv, sched := newBareScheduler(t, nodes, Config{})
	bind := func(pod *api.Pod, node string) {
		t.Helper()
		pod.Spec.SchedulerName = sched.Name()
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
		if err := srv.Bind(pod.Name, node); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("node-%02d", i)
		bind(memPod("small-fry-"+node, resource.GiB, 0), node)
		bind(memPod("peer-"+node, 63*resource.GiB, 5), node)
	}
	rng := rand.New(rand.NewSource(30))
	runs, smallest := 0, int64(1<<62)
	for i, k := range rng.Perm(pending) {
		size := 2*resource.GiB + int64(k)*resource.MiB
		if size < smallest {
			runs, smallest = runs+1, size
		}
		pod := memPod(fmt.Sprintf("waiting-%03d", i), size, 5)
		pod.Spec.SchedulerName = sched.Name()
		if err := srv.CreatePod(pod); err != nil {
			t.Fatal(err)
		}
	}
	sched.ScheduleOnce()
	st := sched.Stats()
	if st.Unschedulable != pending || st.Preemptions != 0 {
		t.Fatalf("stats = %+v, want all %d pods unschedulable and no preemption", st, pending)
	}
	if st.Memoised != pending-runs {
		t.Fatalf("memoised %d cycles, want %d: one real cycle per new smallest request (%d of them)", st.Memoised, pending-runs, runs)
	}
}

// TestMemoKeepsNoProofAcrossALoosening: a failure whose filter and planner
// saw different views proves nothing. Here "a" fails the filter on the
// SGX node only for the CPU "cpu-hog" took earlier in the pass; a's
// preemption sync drops that CPU again, and on the looser view the planner
// finds no victims — the node's EPC is over-used, which the planner counts
// against a standard pod and the filter does not. "b", the same pod, must
// still run its own cycle and bind where "a" could not.
func TestMemoKeepsNoProofAcrossALoosening(t *testing.T) {
	for _, memo := range []bool{false, true} {
		clk := clock.NewSim()
		srv := apiserver.New(clk)
		db := tsdb.New(clk)
		for _, n := range []*api.Node{
			{Name: "sgx-1", Allocatable: resource.List{resource.Memory: 4 * resource.GiB, resource.CPU: 4000, resource.EPCPages: 2000}},
			{Name: "std-1", Allocatable: resource.List{resource.Memory: 8 * resource.GiB, resource.CPU: 4000}},
		} {
			n.Capacity, n.Ready = n.Allocatable, true
			if err := srv.RegisterNode(n); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(clk, srv, db, Config{Name: "s", Policy: Binpack{}, UseMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		s.noMemo = !memo
		pod := func(name string, prio int32, req resource.List) *api.Pod {
			return &api.Pod{Name: name, Spec: api.PodSpec{SchedulerName: "s", Priority: prio,
				Containers: []api.Container{{Name: "main", Resources: api.Requirements{Requests: req}}}}}
		}
		for _, p := range []struct {
			pod  *api.Pod
			node string
		}{
			{pod("filler", 10, resource.List{resource.Memory: 8*resource.GiB - 256*resource.MiB}), "std-1"},
			{pod("small-fry", 0, resource.List{resource.Memory: 256 * resource.MiB}), "std-1"},
			{pod("enclave", 10, resource.List{resource.Memory: 64 * resource.MiB, resource.EPCPages: 1000}), "sgx-1"},
		} {
			if err := srv.CreatePod(p.pod); err != nil {
				t.Fatal(err)
			}
			if err := srv.Bind(p.pod.Name, p.node); err != nil {
				t.Fatal(err)
			}
		}
		db.Write(monitor.MeasurementEPC, tsdb.Tags{monitor.TagPod: "enclave", monitor.TagNode: "sgx-1"},
			float64(2500*resource.EPCPageSize), clk.Now())
		for _, p := range []*api.Pod{
			pod("cpu-hog", 10, resource.List{resource.Memory: resource.GiB, resource.CPU: 3000}),
			pod("a", 5, resource.List{resource.Memory: resource.GiB, resource.CPU: 2000}),
			pod("b", 5, resource.List{resource.Memory: resource.GiB, resource.CPU: 2000}),
		} {
			if err := srv.CreatePod(p); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.ScheduleOnce(); got != 2 {
			t.Fatalf("memo=%v: the pass bound %d pods, want cpu-hog and b", memo, got)
		}
		for name, want := range map[string]string{"cpu-hog": "sgx-1", "a": "", "b": "sgx-1"} {
			if p, _ := srv.GetPod(name); p.Spec.NodeName != want {
				t.Fatalf("memo=%v: %s on %q, want %q", memo, name, p.Spec.NodeName, want)
			}
		}
		if st := s.Stats(); st.Preemptions != 0 || st.Memoised != 0 {
			t.Fatalf("memo=%v: stats = %+v, want no preemption and nothing memoised", memo, st)
		}
		s.Close()
		db.Close()
		srv.Close()
	}
}

// onScore is a hook (see hooked) that runs act the first time a pod's
// candidates are rated for placement.
type onScore struct{ act func() }

func (o *onScore) hook(*PodInfo, *NodeView, *ClusterView) {
	if act := o.act; act != nil {
		o.act = nil
		act()
	}
}

// TestMemoSeesEveryLoosening drives each way the view can loosen in the
// middle of a pass past a pod the memo could wrongly skip. "a" fails
// cleanly; "trigger", placed next, changes the cluster while its
// candidates are rated; "b", the same pod as "a", must then do what it
// would without the memo:
//   - "gang": a member of a's only victim gang, running on a cordoned node
//     and outranking a, finishes, so the rest of the gang becomes
//     evictable and b preempts it — no node's headroom rose;
//   - "growth": a node too small for a grows while a low-tier pod binds
//     into the growth, so b preempts there — headroom stayed at zero;
//   - "join": a cordoned node with room is uncordoned, and b (a batch pod
//     that never preempts) binds there once "syncer", a preemptor between
//     them, has synced the view;
//   - "rebuild": a pod finishes and enough churn follows that the syncer's
//     sync rebuilds the view instead of replaying it; b binds in the room.
func TestMemoSeesEveryLoosening(t *testing.T) {
	type placed struct {
		pod  *api.Pod
		node string
	}
	pod := func(name string, prio int32, mem int64, group string) *api.Pod {
		p := memPod(name, mem, prio)
		p.Spec.SchedulerName, p.Spec.PodGroup = "s", group
		return p
	}
	batch := func(p *api.Pod) *api.Pod {
		p.Spec.Class = api.ClassBatch
		return p
	}
	cases := []struct {
		name    string
		nodes   []string // 4 GiB each
		cordon  string
		bound   []placed
		pending []*api.Pod
		act     func(*apiserver.Server) error
		want    map[string]string // where each pod is after one pass ("" = queued)
	}{{
		name:   "gang",
		nodes:  []string{"n1", "n2", "open"},
		cordon: "n2",
		bound: []placed{
			{pod("m1", 0, 3*resource.GiB, "g"), "n1"},
			{pod("hi-1", 10, resource.GiB, ""), "n1"},
			{pod("m2", 10, resource.GiB, "g"), "n2"},
			{pod("hi-open", 10, 3584*resource.MiB, ""), "open"},
		},
		pending: []*api.Pod{pod("a", 5, 2*resource.GiB, ""), pod("trigger", 5, 256*resource.MiB, ""), pod("b", 5, 2*resource.GiB, "")},
		act:     func(srv *apiserver.Server) error { return srv.MarkSucceeded("m2") },
		want:    map[string]string{"a": "", "b": "n1", "m1": ""},
	}, {
		name:  "growth",
		nodes: []string{"small", "open"},
		bound: []placed{
			{pod("low", 0, 4*resource.GiB, ""), "small"},
			{pod("hi-open", 10, 3584*resource.MiB, ""), "open"},
		},
		pending: []*api.Pod{pod("a", 5, 6*resource.GiB, ""), pod("trigger", 5, 256*resource.MiB, ""), pod("b", 5, 6*resource.GiB, "")},
		act: func(srv *apiserver.Server) error {
			n, err := srv.GetNode("small")
			if err != nil {
				return err
			}
			n = n.Clone()
			n.Allocatable[resource.Memory] = 8 * resource.GiB
			if err := srv.UpdateNode(n); err != nil {
				return err
			}
			grower := pod("grower", 0, 4*resource.GiB, "")
			grower.Spec.SchedulerName = "nobody"
			if err := srv.CreatePod(grower); err != nil {
				return err
			}
			return srv.Bind("grower", "small")
		},
		want: map[string]string{"a": "", "b": "small", "low": ""},
	}, {
		name:   "join",
		nodes:  []string{"full", "open", "spare"},
		cordon: "spare",
		bound: []placed{
			{pod("small-fry", 0, 256*resource.MiB, ""), "full"},
			{pod("hi", 10, 3840*resource.MiB, ""), "full"},
			{pod("hi-open", 10, 3584*resource.MiB, ""), "open"},
		},
		pending: []*api.Pod{batch(pod("a", 5, 2*resource.GiB, "")), pod("trigger", 5, 256*resource.MiB, ""),
			pod("syncer", 5, 2*resource.GiB, ""), batch(pod("b", 5, 2*resource.GiB, ""))},
		act: func(srv *apiserver.Server) error {
			n, err := srv.GetNode("spare")
			if err != nil {
				return err
			}
			n = n.Clone()
			n.Unschedulable = false
			return srv.UpdateNode(n)
		},
		want: map[string]string{"a": "", "syncer": "", "b": "spare"},
	}, {
		name:  "rebuild",
		nodes: []string{"full", "open"},
		bound: []placed{
			{pod("small-fry", 0, 256*resource.MiB, ""), "full"},
			{pod("x", 10, 2*resource.GiB, ""), "full"},
			{pod("hi", 10, 1792*resource.MiB, ""), "full"},
			{pod("hi-open", 10, 3584*resource.MiB, ""), "open"},
		},
		pending: []*api.Pod{batch(pod("a", 5, 2*resource.GiB, "")), pod("trigger", 5, 256*resource.MiB, ""),
			pod("syncer", 5, 2*resource.GiB, ""), batch(pod("b", 5, 2*resource.GiB, ""))},
		act: func(srv *apiserver.Server) error {
			if err := srv.MarkSucceeded("x"); err != nil {
				return err
			}
			// Each tiny pod journals its node three times: more churn than
			// a sync replays rather than rebuilds.
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("churn-%d", i)
				p := pod(name, 10, resource.MiB, "")
				p.Spec.SchedulerName = "nobody"
				if err := srv.CreatePod(p); err != nil {
					return err
				}
				if err := srv.Bind(name, "open"); err != nil {
					return err
				}
				if err := srv.MarkSucceeded(name); err != nil {
					return err
				}
			}
			return nil
		},
		want: map[string]string{"a": "", "syncer": "", "b": "full"},
	}}
	for _, tc := range cases {
		for _, memo := range []bool{false, true} {
			clk := clock.NewSim()
			srv := apiserver.New(clk)
			for _, name := range tc.nodes {
				alloc := resource.List{resource.Memory: 4 * resource.GiB}
				if err := srv.RegisterNode(&api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range tc.bound {
				if err := srv.CreatePod(b.pod); err != nil {
					t.Fatal(err)
				}
				if err := srv.Bind(b.pod.Name, b.node); err != nil {
					t.Fatal(err)
				}
			}
			if tc.cordon != "" {
				n, _ := srv.GetNode(tc.cordon)
				n = n.Clone()
				n.Unschedulable = true
				if err := srv.UpdateNode(n); err != nil {
					t.Fatal(err)
				}
			}
			trigger := &onScore{act: func() {
				if err := tc.act(srv); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			}}
			s, err := New(clk, srv, nil, Config{
				Name:   "s",
				Policy: hooked{Binpack{}, trigger.hook},
			})
			if err != nil {
				t.Fatal(err)
			}
			s.noMemo = !memo
			for _, p := range tc.pending {
				if err := srv.CreatePod(p); err != nil {
					t.Fatal(err)
				}
			}
			s.ScheduleOnce()
			for name, want := range tc.want {
				if p, _ := srv.GetPod(name); p.Spec.NodeName != want {
					t.Fatalf("%s, memo=%v: %s on %q, want %q", tc.name, memo, name, p.Spec.NodeName, want)
				}
			}
			if st := s.Stats(); st.Memoised != 0 {
				t.Fatalf("%s, memo=%v: stats = %+v, want nothing memoised", tc.name, memo, st)
			}
			s.Close()
			srv.Close()
		}
	}
}

// TestMemoKeepsAtMostMaxEntries: a pass whose failures do not order one
// another (each asks for more CPU and less memory than the one before)
// fills the memo to maxMemoEntries and records nothing past it. The
// entries kept still prove themselves; a failure past the bound proves
// nothing, so its pod runs its own cycle.
func TestMemoKeepsAtMostMaxEntries(t *testing.T) {
	var m failureMemo
	v := &ClusterView{}
	pods := make([]*PodInfo, maxMemoEntries+4)
	for i := range pods {
		pods[i] = &PodInfo{Req: resource.List{resource.CPU: int64(i + 1), resource.Memory: int64(len(pods) - i)}}
		m.record(v, 0, pods[i])
	}
	if len(m.entries) != maxMemoEntries {
		t.Fatalf("memo holds %d entries after %d incomparable failures, want exactly %d", len(m.entries), len(pods), maxMemoEntries)
	}
	for i, p := range pods {
		if got, want := m.dominates(v, 0, p), i < maxMemoEntries; got != want {
			t.Fatalf("failure %d: dominated = %v, want %v", i, got, want)
		}
	}
}
