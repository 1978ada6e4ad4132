package apiserver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/model"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// These tests hold the server to internal/model, the reference model of
// the cluster, which imports this package — hence the external package.

// record subscribes a recorder to s and returns what it has seen so far.
// Delivery is serialized by the server's ordering lock; the mutex keeps
// the recorder race-clean anyway.
func record(t *testing.T, s *apiserver.Server) func() []apiserver.WatchEvent {
	var mu sync.Mutex
	var events []apiserver.WatchEvent
	t.Cleanup(s.Subscribe(func(ev apiserver.WatchEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	return func() []apiserver.WatchEvent {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(events)
	}
}

// TestConflictInterleavingCapacityProperty drives random concurrent
// interleavings of every capacity-moving operation — bind / preempt /
// finish / fail / evict on plain pods, and for two-member gangs reserve
// followed by evict-while-held, ReleaseGroup, CommitGroup or
// PreemptGroup — with binds racing and conflicting, against a
// strict-admission server, and makes internal/model the referee: the
// recorded watch stream must apply without a refusal (dense revs, no
// charge taken twice, gang commits on their permits' nodes, no node's
// commitment negative or beyond its allocatable at any prefix), and the
// model's end state must be the server's — committed requests per node,
// permits held, (node, phase) per pod, bound members per gang. The
// capacity half holds only if every release is published while the node
// stripe is still held.
func TestConflictInterleavingCapacityProperty(t *testing.T) {
	clk := clock.NewSim()
	s := apiserver.New(clk, apiserver.WithAdmission(apiserver.AdmitStrict))
	events := record(t, s)

	var nodes []string
	for i := 0; i < 3; i++ {
		n := apiserver.NewNode(fmt.Sprintf("sgx-%d", i), true) // 64 GiB, 23936 pages
		nodes = append(nodes, n.Name)
		if err := s.RegisterNode(n); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	const perWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			create := func(name, group string) bool {
				req := resource.List{resource.Memory: int64(1+rng.Intn(24)) * resource.GiB}
				if rng.Intn(2) == 0 {
					req[resource.EPCPages] = int64(1 + rng.Intn(9000))
				}
				if rng.Intn(8) == 0 {
					// A negative quantity is refused at create and leaves
					// nothing behind: the name is still free below.
					bad := req
					bad[resource.Name(rng.Intn(3))] = -int64(1 + rng.Intn(9000))
					if err := s.CreatePod(apiserver.NewReqPod(name, bad)); !errors.Is(err, apiserver.ErrInvalid) {
						t.Errorf("create %s with %v: err = %v, want ErrInvalid", name, bad, err)
						return false
					}
				}
				p := apiserver.NewReqPod(name, req)
				if group != "" {
					p.Spec.PodGroup, p.Spec.MinMember = group, 2
				}
				if err := s.CreatePod(p); err != nil {
					t.Errorf("create %s: %v", name, err)
					return false
				}
				return true
			}
			randNode := func() string { return nodes[rng.Intn(len(nodes))] }
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("pod-%d-%d", w, i)
				if rng.Intn(3) == 0 {
					// A two-member gang: reserve what fits (losing a race
					// is the point), then resolve the permits one way.
					group := fmt.Sprintf("gang-%d-%d", w, i)
					members := []string{name + "-a", name + "-b"}
					for _, m := range members {
						if !create(m, group) {
							return
						}
						_ = s.Reserve(m, randNode())
					}
					switch rng.Intn(4) {
					case 0:
						_ = s.Evict(members[0], "chaos") // terminal while held
						_, _ = s.ReleaseGroup(group, "chaos")
					case 1:
						_, _ = s.ReleaseGroup(group, "chaos")
					case 2:
						_, _ = s.PreemptGroup(group, "chaos") // rolls held permits back
					case 3:
						if _, err := s.CommitGroup(group); err != nil {
							continue
						}
						switch rng.Intn(3) {
						case 0:
							_, _ = s.PreemptGroup(group, "chaos")
						case 1:
							_ = s.MarkFailed(members[rng.Intn(2)], "chaos")
						}
					}
					continue
				}
				if !create(name, "") {
					return
				}
				if err := s.Bind(name, randNode()); err != nil {
					continue // lost a race: conflicts are the point
				}
				switch rng.Intn(5) {
				case 0:
					_ = s.Preempt(name, "chaos")
				case 1:
					_ = s.MarkSucceeded(name)
				case 2:
					_ = s.Evict(name, "chaos")
				case 3:
					_ = s.MarkFailed(name, "chaos")
				}
			}
		}()
	}
	wg.Wait()

	m := model.New(apiserver.AdmitStrict)
	conflictsSeen := s.BindStats().RejectedCapacity
	for i, ev := range events() {
		if err := m.Apply(ev); err != nil {
			t.Fatalf("event %d: %v (conflicts so far: %d)", i, err, conflictsSeen)
		}
	}
	if conflictsSeen == 0 {
		t.Log("note: no capacity conflicts occurred this run (racy; property still verified)")
	}

	for _, name := range nodes {
		if got, want := s.Committed(name), m.Nodes[name].Committed; got != want {
			t.Fatalf("node %s: server committed %v, the model %v", name, got, want)
		}
	}
	held := 0
	for _, p := range m.Pods {
		if p.Held {
			held++
		}
	}
	if got := s.ReservationCount(); got != held {
		t.Fatalf("server holds %d permits, the model %d", got, held)
	}
	pods := s.ListPods(nil)
	if len(pods) != len(m.Pods) {
		t.Fatalf("server has %d pods, the model %d", len(pods), len(m.Pods))
	}
	for _, p := range pods {
		mp := m.Pods[p.Name]
		if mp == nil {
			t.Fatalf("pod %s is absent from the model", p.Name)
		}
		node := mp.Node
		if mp.Held {
			node = "" // a permit holder is unbound on the server
		}
		if p.Spec.NodeName != node || p.Status.Phase != mp.Phase {
			t.Fatalf("pod %s: server (%q, %s), the model (%q, %s)", p.Name, p.Spec.NodeName, p.Status.Phase, node, mp.Phase)
		}
	}
	for name, g := range m.Gangs {
		if _, bound, _ := g.Count(); s.BoundGroupCount(name) != bound {
			t.Fatalf("gang %s: server has %d bound members, the model %d", name, s.BoundGroupCount(name), bound)
		}
	}
}

// TestSnapshotConsistentPrefixDuringConcurrentBinds is the striping
// safety property: a SnapshotNow taken at any instant of a bind storm
// must equal the model of the event log up to the snapshot's Rev — no
// torn cross-shard reads, no applied-but-unpublished commits, no
// published-but-unapplied events, and the pending queue in order.
func TestSnapshotConsistentPrefixDuringConcurrentBinds(t *testing.T) {
	const (
		nodes   = 8
		fit     = 40
		pods    = 384
		binders = 8
		snaps   = 40
	)
	s := apiserver.New(clock.NewSim(), apiserver.WithAdmission(apiserver.AdmitStrict))
	defer s.Close()

	// The recorder subscribes before any mutation so the event log is
	// replayable from rev 0.
	events := record(t, s)

	for n := 0; n < nodes; n++ {
		if err := s.RegisterNode(apiserver.NewStormNode(fmt.Sprintf("node-%02d", n), fit)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < pods; p++ {
		if err := s.CreatePod(apiserver.NewStormPod(fmt.Sprintf("pod-%04d", p))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	per := pods / binders
	for b := 0; b < binders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := b * per; i < (b+1)*per; i++ {
				// Outcome is irrelevant: the property must hold whether the
				// bind lands or loses an admission race.
				_ = s.Bind(fmt.Sprintf("pod-%04d", i), fmt.Sprintf("node-%02d", i%nodes))
			}
		}(b)
	}
	snapshots := make([]apiserver.Snapshot, 0, snaps+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snaps; i++ {
			snapshots = append(snapshots, s.SnapshotNow())
		}
	}()
	wg.Wait()
	snapshots = append(snapshots, s.SnapshotNow())
	s.QuiesceWatch()

	// The snapshots were taken in order, so one model walks the log once.
	log := events()
	m := model.New(apiserver.AdmitStrict)
	next := 0
	for _, snap := range snapshots {
		for ; next < len(log) && log[next].Rev <= snap.Rev; next++ {
			if err := m.Apply(log[next]); err != nil {
				t.Fatal(err)
			}
		}
		if len(snap.Pods) != len(m.Pods) {
			t.Fatalf("snapshot rev %d has %d pods, the model %d", snap.Rev, len(snap.Pods), len(m.Pods))
		}
		for _, p := range snap.Pods {
			mp, ok := m.Pods[p.Name]
			if !ok {
				t.Fatalf("snapshot rev %d contains %s, absent from the log prefix", snap.Rev, p.Name)
			}
			if p.Spec.NodeName != mp.Node || p.Status.Phase != mp.Phase {
				t.Fatalf("snapshot rev %d: pod %s is (%q,%s), the model says (%q,%s) — torn read",
					snap.Rev, p.Name, p.Spec.NodeName, p.Status.Phase, mp.Node, mp.Phase)
			}
		}
		if want := m.Pending(); !slices.Equal(snap.Pending, want) {
			t.Fatalf("snapshot rev %d pending = %v, the model says %v", snap.Rev, snap.Pending, want)
		}
	}
	if next != len(log) {
		t.Fatalf("the last snapshot is at rev %d, the log runs to %d", snapshots[len(snapshots)-1].Rev, log[len(log)-1].Rev)
	}
}
