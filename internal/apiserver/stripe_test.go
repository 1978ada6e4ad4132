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
	defer s.Subscribe(func(WatchEvent) {})()
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
