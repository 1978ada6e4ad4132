package apiserver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestMarkRunningIsIdempotent: MarkRunning on a pod already Running
// returns nil, publishes nothing and stores no new version, so StartedAt
// keeps the first run's stamp and the stream carries one Running per
// binding. After a preemption and a new bind the pod runs again.
func TestMarkRunningIsIdempotent(t *testing.T) {
	clk := clock.NewSim()
	s := New(clk)
	if err := s.RegisterNode(testNode("n1", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePod(testPod("p1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatal(err)
	}
	first, _ := s.GetPod("p1")
	published := s.WatchStats().Published
	clk.Advance(time.Minute)
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatalf("MarkRunning on a Running pod = %v, want nil", err)
	}
	again, _ := s.GetPod("p1")
	if got := s.WatchStats().Published; got != published {
		t.Fatalf("MarkRunning on a Running pod published %d events", got-published)
	}
	if again != first || !again.Status.StartedAt.Equal(first.Status.StartedAt) {
		t.Fatalf("StartedAt %v → %v, version kept = %v; want the first run's version", first.Status.StartedAt, again.Status.StartedAt, again == first)
	}

	if err := s.Preempt("p1", "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("p1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning("p1"); err != nil {
		t.Fatal(err)
	}
	if got := s.WatchStats().Published; got != published+3 {
		t.Fatalf("preempt, bind and run published %d events, want 3", got-published)
	}
}

// scanAllTerminal is AllTerminal as a walk over every stored pod.
func scanAllTerminal(s *Server) bool {
	all := true
	s.VisitPods(func(p *api.Pod) bool {
		all = p.IsTerminal()
		return all
	})
	return all
}

// TestAllTerminalMatchesScanProperty drives random creates (refused ones
// included), binds, runs, successes, failures, evictions, preemptions and
// gang permits, commits and releases, and after every step compares
// AllTerminal, a count, with a walk over every pod.
func TestAllTerminalMatchesScanProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(clock.NewSim())
		nodes := []string{"n1", "n2"}
		for _, n := range nodes {
			node := testNode(n, false)
			node.Allocatable[resource.Memory] = 8 * resource.GiB
			if err := s.RegisterNode(node); err != nil {
				t.Fatal(err)
			}
		}
		var pods, groups []string
		pick := func(names []string) string {
			if len(names) == 0 {
				return "none"
			}
			return names[rng.Intn(len(names))]
		}
		for step := 0; step < 300; step++ {
			var op string
			switch r := rng.Intn(12); r {
			case 0, 1:
				name := fmt.Sprintf("p%d", len(pods))
				if rng.Intn(6) == 0 && len(pods) > 0 {
					name = pick(pods) // a duplicate name is refused
				}
				p := reqPod(name, resource.List{resource.Memory: int64(1+rng.Intn(4)) * resource.GiB})
				if rng.Intn(8) == 0 {
					p.Spec.Containers[0].Resources.Requests[resource.CPU] = -1 // refused
				}
				if rng.Intn(3) == 0 {
					group := fmt.Sprintf("g%d", len(groups)/2)
					p.Spec.PodGroup, p.Spec.MinMember = group, 2
					groups = append(groups, group)
				}
				op = "create " + name
				if s.CreatePod(p) == nil {
					pods = append(pods, name)
				}
			case 2:
				op = "bind"
				_ = s.Bind(pick(pods), pick(nodes))
			case 3, 4:
				op = "run"
				_ = s.MarkRunning(pick(pods))
			case 5:
				op = "succeed"
				_ = s.MarkSucceeded(pick(pods))
			case 6:
				op = "fail"
				_ = s.MarkFailed(pick(pods), "chaos")
			case 7:
				op = "evict"
				_ = s.Evict(pick(pods), "chaos")
			case 8:
				op = "preempt"
				_ = s.Preempt(pick(pods), "chaos")
			case 9:
				op = "reserve"
				_ = s.Reserve(pick(pods), pick(nodes))
			case 10:
				op = "commit"
				_, _ = s.CommitGroup(pick(groups))
			case 11:
				op = "release"
				if rng.Intn(2) == 0 {
					_, _ = s.ReleaseGroup(pick(groups), "chaos")
				} else {
					_, _ = s.PreemptGroup(pick(groups), "chaos")
				}
			}
			if got, want := s.AllTerminal(), scanAllTerminal(s); got != want {
				t.Fatalf("seed %d step %d (%s): AllTerminal = %v, a walk over the pods says %v", seed, step, op, got, want)
			}
		}
		for _, name := range pods {
			_ = s.Evict(name, "drain")
		}
		if !s.AllTerminal() || !scanAllTerminal(s) {
			t.Fatalf("seed %d: AllTerminal = %v after evicting every pod", seed, s.AllTerminal())
		}
	}
}
