package apiserver

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// stormNode returns a node with room for `fit` stormPods.
func stormNode(name string, fit int64) *api.Node {
	alloc := resource.List{resource.Memory: fit * 256 * resource.MiB, resource.CPU: 64000}
	return &api.Node{Name: name, Capacity: alloc, Allocatable: alloc, Ready: true}
}

func stormPod(name string) *api.Pod {
	return &api.Pod{
		Name: name,
		Spec: api.PodSpec{
			Containers: []api.Container{{
				Name:      "main",
				Resources: api.Requirements{Requests: resource.List{resource.Memory: 256 * resource.MiB}},
			}},
		},
	}
}

// TestConcurrentBindStatsUnderStorm hammers Bind from many goroutines
// while readers poll BindStats/Committed/PendingCount concurrently: the
// atomic counters must stay mutually consistent (attempts = bound + the
// rejection classes) and agree with the callers' own outcome counts and
// with the per-node committed accounting.
func TestConcurrentBindStatsUnderStorm(t *testing.T) {
	const (
		nodes   = 16
		fit     = 20 // per-node capacity in pods; 16*20 < 512 forces capacity rejections
		pods    = 512
		binders = 8
	)
	s := New(clock.NewSim(), WithAdmission(AdmitStrict), WithAsyncWatch())
	defer s.Close()
	for n := 0; n < nodes; n++ {
		if err := s.RegisterNode(stormNode(fmt.Sprintf("node-%02d", n), fit)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < pods; p++ {
		if err := s.CreatePod(stormPod(fmt.Sprintf("pod-%04d", p))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// Counters are loaded independently, so mid-storm reads are
			// only monotonic per counter, not mutually consistent — the
			// cross-counter invariant is asserted after quiescence below.
			// The readers' job is racing the commit path under -race.
			var lastAttempts int64
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.BindStats()
				if st.Attempts < lastAttempts {
					panic(fmt.Sprintf("attempts went backwards: %d after %d", st.Attempts, lastAttempts))
				}
				lastAttempts = st.Attempts
				s.Committed("node-00")
				s.PendingCount()
			}
		}()
	}

	boundByNode := make([]int64, nodes)
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := pods / binders
	for b := 0; b < binders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			local := make([]int64, nodes)
			for i := b * per; i < (b+1)*per; i++ {
				node := i % nodes
				if err := s.Bind(fmt.Sprintf("pod-%04d", i), fmt.Sprintf("node-%02d", node)); err == nil {
					local[node]++
				}
			}
			mu.Lock()
			for n := range local {
				boundByNode[n] += local[n]
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	s.QuiesceWatch()

	st := s.BindStats()
	if st.Attempts != pods {
		t.Fatalf("attempts = %d, want %d (each pod bound once)", st.Attempts, pods)
	}
	if got := st.Bound + st.RejectedPodState + st.RejectedNodeState + st.RejectedCapacity; got != st.Attempts {
		t.Fatalf("outcome classes sum to %d, want attempts %d (stats %+v)", got, st.Attempts, st)
	}
	var bound int64
	for n := int64(0); n < nodes; n++ {
		bound += boundByNode[n]
		if boundByNode[n] > fit {
			t.Fatalf("node %d accepted %d pods beyond its capacity %d", n, boundByNode[n], fit)
		}
		com := s.Committed(fmt.Sprintf("node-%02d", n))
		if want := boundByNode[n] * 256 * resource.MiB; com.Get(resource.Memory) != want {
			t.Fatalf("node %d committed %d bytes, want %d", n, com.Get(resource.Memory), want)
		}
	}
	if st.Bound != bound {
		t.Fatalf("stats report %d bound, callers counted %d", st.Bound, bound)
	}
	if st.RejectedCapacity == 0 {
		t.Fatal("storm was sized to overflow capacity but no bind was rejected for it")
	}
	if int64(s.PendingCount()) != pods-bound {
		t.Fatalf("pending = %d, want %d", s.PendingCount(), pods-bound)
	}
}

// bindAllocsPinned is what one successful Bind allocates with telemetry
// off, synchronous watch and one subscriber: the one allocation is the pod
// struct the event carries. The commit transaction must add nothing to it
// — a heap-escaping txn or closure per commit, a deep copy of the spec for
// the event, a goroutine-id lookup in the flush, a message string built
// per commit — any of them would show up on every bind of the bind_storm
// benchmark.
const bindAllocsPinned = 1

func TestBindAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	s := New(clock.NewSim())
	if err := s.RegisterNode(stormNode("n1", 1<<20)); err != nil {
		t.Fatal(err)
	}
	defer subscribeEach(s, func(WatchEvent) {})()
	const runs = 200
	names := make([]string, runs+1) // AllocsPerRun adds one warm-up call
	for i := range names {
		names[i] = fmt.Sprintf("p-%03d", i)
		if err := s.CreatePod(stormPod(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if err := s.Bind(names[next], "n1"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got > bindAllocsPinned {
		t.Fatalf("Bind allocates %.0f objects per commit, pinned at %d", got, bindAllocsPinned)
	}
}

// TestGetPodAllocsPinned: GetPod hands out the stored version, so a read
// allocates nothing — a deep clone per call (two objects and the label
// map) shows here first.
func TestGetPodAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	s := New(clock.NewSim())
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := s.GetPod("p1"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("GetPod allocates %.0f objects per call, pinned at 0", got)
	}
}

// TestSnapshotAllocsIndependentOfPods: SnapshotNow allocates its slices
// and nothing per object, so its count is the same at 100 and 1 000 pods.
// A clone per pod or node, or a slice grown by append, makes it grow.
func TestSnapshotAllocsIndependentOfPods(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	allocs := func(pods int) float64 {
		s := New(clock.NewSim())
		for n := 0; n < 4; n++ {
			if err := s.RegisterNode(stormNode(fmt.Sprintf("n%d", n), int64(pods))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pods; i++ {
			name := fmt.Sprintf("p-%04d", i)
			if err := s.CreatePod(stormPod(name)); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := s.Bind(name, fmt.Sprintf("n%d", i%4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return testing.AllocsPerRun(20, func() { _ = s.SnapshotNow() })
	}
	if small, large := allocs(100), allocs(1000); small != large {
		t.Fatalf("SnapshotNow allocates %.0f objects at 100 pods and %.0f at 1 000, want the same", small, large)
	}
}

// podVersion is what a commit decides about a pod: its binding and its
// status.
type podVersion struct {
	node   string
	status api.PodStatus
}

func versionOf(p *api.Pod) podVersion { return podVersion{p.Spec.NodeName, p.Status} }

// TestStoredVersionsConcurrent: readers (GetPod, ListPods, SnapshotNow)
// race binds, lifecycle transitions and preemptions. Every pod a reader
// gets must be a version some event published — the same pointer — and
// still read as that event did: no commit edits a version once it is
// handed out, to a subscriber or a reader.
func TestStoredVersionsConcurrent(t *testing.T) {
	const (
		nodes   = 4
		pods    = 128
		writers = 4
		readers = 3
	)
	s := New(clock.NewSim())
	var mu sync.Mutex
	published := map[*api.Pod]podVersion{}
	defer subscribeEach(s, func(ev WatchEvent) {
		if ev.Pod != nil {
			mu.Lock()
			published[ev.Pod] = versionOf(ev.Pod)
			mu.Unlock()
		}
	})()
	for n := 0; n < nodes; n++ {
		if err := s.RegisterNode(stormNode(fmt.Sprintf("node-%d", n), pods)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pods; i++ {
		if err := s.CreatePod(stormPod(fmt.Sprintf("pod-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The writers start only once every reader runs: a reader the
	// scheduler started after the storm would read nothing while it
	// commits.
	done := make(chan struct{})
	seen := make([]map[*api.Pod]podVersion, readers)
	var rg, started sync.WaitGroup
	started.Add(readers)
	for r := range seen {
		seen[r] = map[*api.Pod]podVersion{}
		rg.Add(1)
		go func(got map[*api.Pod]podVersion) {
			defer rg.Done()
			started.Done()
			record := func(p *api.Pod) {
				v := versionOf(p)
				if first, ok := got[p]; ok && first != v {
					panic(fmt.Sprintf("pod %s changed after it was handed out: %+v, then %+v", p.Name, first, v))
				}
				got[p] = v
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					if p, err := s.GetPod(fmt.Sprintf("pod-%03d", i%pods)); err == nil {
						record(p)
					}
				case 1:
					for _, p := range s.ListPods(nil) {
						record(p)
					}
				default:
					for _, p := range s.SnapshotNow().Pods {
						record(p)
					}
				}
			}
		}(seen[r])
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			started.Wait()
			for i := w; i < pods; i += writers {
				name, node := fmt.Sprintf("pod-%03d", i), fmt.Sprintf("node-%d", i%nodes)
				// Errors are fine: each step is a legal commit or a refusal
				// that changes nothing.
				_ = s.Bind(name, node)
				if i%3 == 0 {
					_ = s.Preempt(name, "storm")
					_ = s.Bind(name, node)
				}
				_ = s.MarkRunning(name)
				if i%5 == 0 {
					_ = s.MarkFailed(name, "storm")
				} else {
					_ = s.MarkSucceeded(name)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rg.Wait()

	reads := 0
	for _, got := range seen {
		for p, v := range got {
			reads++
			want, ok := published[p]
			switch {
			case !ok:
				t.Fatalf("a reader got pod %s (%+v), a version no event published", p.Name, v)
			case want != v:
				t.Fatalf("pod %s read as %+v, its event published %+v", p.Name, v, want)
			}
		}
	}
	for p, want := range published {
		if got := versionOf(p); got != want {
			t.Fatalf("pod %s's event changed after it was published: %+v, then %+v", p.Name, want, got)
		}
	}
	if reads == 0 {
		t.Fatal("no reader read a pod: the property is vacuous")
	}
	if !s.AllTerminal() {
		t.Fatal("a pod did not finish: the storm did not run its lifecycle")
	}
}
