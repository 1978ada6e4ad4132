package apiserver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	t.Cleanup(s.SubscribeBatch(func(evs []apiserver.WatchEvent) {
		mu.Lock()
		events = append(events, evs...)
		mu.Unlock()
	}, nil))
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
// PreemptGroup, or an eviction while still pending before any reserve
// and then CommitGroup — with binds racing and conflicting, against a
// strict-admission server, and makes internal/model the referee: the
// recorded watch stream must apply without a refusal (dense revs, no
// charge taken twice, gang commits on their permits' nodes, no node's
// commitment negative or beyond its allocatable at any prefix), and the
// model's end state must be the server's — committed requests per node,
// permits held and the snapshot's list of them, (node, phase) per pod,
// and every gang's held, bound and finished members (GangCounts). The
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
					resolution := rng.Intn(5)
					for j, m := range members {
						if !create(m, group) {
							return
						}
						if resolution == 4 && j == 0 {
							_ = s.Evict(m, "chaos") // finishes while pending
						}
						_ = s.Reserve(m, randNode())
					}
					switch resolution {
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
					case 4:
						_, _ = s.CommitGroup(group) // the finished member counts toward the quorum
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
	var permits []apiserver.Permit
	for name, p := range m.Pods {
		if p.Held {
			permits = append(permits, apiserver.Permit{Pod: name, Node: p.Node})
		}
	}
	slices.SortFunc(permits, func(a, b apiserver.Permit) int { return strings.Compare(a.Pod, b.Pod) })
	if got := s.SnapshotNow().Permits; !slices.Equal(got, permits) {
		t.Fatalf("snapshot permits %v, the model %v", got, permits)
	}
	finished := 0
	for name, g := range m.Gangs {
		held, bound, done := g.Count()
		if h, b, f := s.GangCounts(name); h != held || b != bound || f != done {
			t.Fatalf("gang %s: server counts %d held, %d bound, %d finished; the model %d, %d, %d", name, h, b, f, held, bound, done)
		}
		finished += done
	}
	if finished == 0 {
		t.Fatal("no gang member finished: the finished count went unchecked")
	}
}

// TestSnapshotConsistentPrefixDuringConcurrentBinds is the striping
// safety property: a SnapshotNow taken at any instant of a bind storm
// must equal the model of the event log up to the snapshot's Rev — no
// torn cross-shard reads, no applied-but-unpublished commits, no
// published-but-unapplied events, and the pending pods the model's, each
// at the rev it entered the queue at (the model's QueuedAt — what a
// scheduler orders a tier by; the order is the scheduler's, not the
// server's). Preempters requeue bound pods while the binders run, on
// other stripes: a requeue is queued at the rev its event drew, not at
// when it reached the index.
func TestSnapshotConsistentPrefixDuringConcurrentBinds(t *testing.T) {
	const (
		nodes      = 8
		fit        = 40
		pods       = 384
		binders    = 8
		preempters = 2
		snaps      = 40
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
		if p%32 == 0 { // three gangs, their members far apart in the tier
			g := apiserver.NewStormPod(fmt.Sprintf("gang-%d-%02d", p/32%3, p/96))
			g.Spec.PodGroup, g.Spec.MinMember = fmt.Sprintf("gang-%d", p/32%3), 4
			if err := s.CreatePod(g); err != nil {
				t.Fatal(err)
			}
		}
	}

	var binding, wg sync.WaitGroup
	per := pods / binders
	for b := 0; b < binders; b++ {
		binding.Add(1)
		go func(b int) {
			defer binding.Done()
			for i := b * per; i < (b+1)*per; i++ {
				// Outcome is irrelevant: the property must hold whether the
				// bind lands or loses an admission race.
				_ = s.Bind(fmt.Sprintf("pod-%04d", i), fmt.Sprintf("node-%02d", i%nodes))
			}
		}(b)
	}
	// Preempters sweep every other pod until the binders are done, each
	// pod requeued at most once: a refusal (not bound yet) is retried.
	done := make(chan struct{})
	for e := 0; e < preempters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			requeued := map[int]bool{}
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := 2 * e; i < pods; i += 2 * preempters {
					if !requeued[i] && s.Preempt(fmt.Sprintf("pod-%04d", i), "storm") == nil {
						requeued[i] = true
					}
				}
			}
		}(e)
	}
	snapshots := make([]apiserver.Snapshot, 0, snaps+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snaps; i++ {
			snapshots = append(snapshots, s.SnapshotNow())
		}
	}()
	binding.Wait()
	close(done)
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
		// Each pending pod's queue rev is the model's QueuedAt, the rev
		// every scheduler orders its queue by within a tier.
		want := m.Pending()
		if len(snap.Pending) != len(want) {
			t.Fatalf("snapshot rev %d has %d pending pods, the model %d", snap.Rev, len(snap.Pending), len(want))
		}
		for _, q := range snap.Pending {
			if !slices.Contains(want, q.Pod) || q.Rev != m.Pods[q.Pod].QueuedAt {
				t.Fatalf("snapshot rev %d: %s pending at rev %d, the model says pending %v at %d",
					snap.Rev, q.Pod, q.Rev, slices.Contains(want, q.Pod), m.Pods[q.Pod].QueuedAt)
			}
		}
	}
	if m.ByClass[0].Preemptions == 0 {
		t.Log("note: no bind was preempted this run (racy; property still verified)")
	}
	if next != len(log) {
		t.Fatalf("the last snapshot is at rev %d, the log runs to %d", snapshots[len(snapshots)-1].Rev, log[len(log)-1].Rev)
	}
}
