package stack

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/telemetry"
)

// nodeEvents records the node events of a stack's stream as "name:ready".
func nodeEvents(st *Stack, into *[]string) (unsubscribe func()) {
	return st.Srv.Subscribe(func(ev apiserver.WatchEvent) {
		if ev.Node == nil {
			return
		}
		state := "ready"
		if !ev.Node.Ready {
			state = "notready"
		}
		*into = append(*into, ev.Node.Name+":"+state)
	})
}

// A subscription made between New and Start sees the stream from its
// first event, and the §VI-A preset comes up as the paper describes it.
func TestSubscribeBetweenNewAndStartSeesFirstEvent(t *testing.T) {
	st := New()
	var first *apiserver.WatchEvent
	defer st.Srv.Subscribe(func(ev apiserver.WatchEvent) {
		if first == nil {
			first = &ev
		}
	})()
	if err := st.Start(Config{Nodes: PaperTestbed(), ScrapeInterval: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if first == nil || first.Type != apiserver.NodeRegistered || first.Rev != 1 || first.Node.Name != "master" {
		t.Fatalf("first event = %+v, want rev 1 NodeRegistered master", first)
	}
	if !first.Node.Unschedulable {
		t.Fatal("master registered schedulable")
	}
	var names []string
	sgx := 0
	for _, kl := range st.Kubelets {
		names = append(names, kl.NodeName())
		if kl.Plugin() != nil {
			sgx++
		}
	}
	if want := []string{"master", "std-1", "std-2", "sgx-1", "sgx-2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("kubelets = %v, want %v", names, want)
	}
	if sgx != SGXNodes || st.DB == nil {
		t.Fatalf("%d SGX nodes, DB %v; want %d and a monitoring plane", sgx, st.DB, SGXNodes)
	}
}

// Close stops the kubelets in node order — their NotReady updates reach a
// subscriber that is still attached in that order — and everything else
// with them; a second Close does nothing.
func TestCloseStopsKubeletsInNodeOrder(t *testing.T) {
	st := New()
	var events []string
	defer nodeEvents(st, &events)()
	if err := st.Start(Config{Nodes: Fleet(2, 1, DefaultEPC, true), NoEnforcement: true, ScrapeInterval: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	st.Observe(reg, 10*time.Second)
	if st.Tracker == nil {
		t.Fatal("Observe attached no tracker")
	}
	callerClosed := 0
	st.OnClose(func() {
		callerClosed++
		if len(events) != 3 {
			t.Errorf("caller's closer ran after %d node events, want before any kubelet stopped", len(events))
		}
	})
	st.Clk.Advance(10 * time.Second)
	if n := reg.Counter("lifecycle_resyncs_total").Value(); n != 0 {
		t.Fatalf("tracker resynced %d times on a sync stream", n)
	}
	if len(st.DB.Measurements()) == 0 {
		t.Fatal("a scrape interval passed and the TSDB is empty")
	}

	st.Close()
	st.Close()
	want := []string{
		"std-1:ready", "std-2:ready", "sgx-1:ready",
		"std-1:notready", "std-2:notready", "sgx-1:notready",
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("node events = %v, want %v", events, want)
	}
	if callerClosed != 1 {
		t.Fatalf("caller's closer ran %d times", callerClosed)
	}
	if st.Clk.Step() {
		t.Fatal("a periodic is still live after Close")
	}
}

// A Start that fails part-way stops the nodes it had started.
func TestFailedStartStopsStartedNodes(t *testing.T) {
	st := New()
	var events []string
	defer nodeEvents(st, &events)()
	nodes := Fleet(2, 0, 0, false)
	nodes = append(nodes, nodes[0])
	err := st.Start(Config{Nodes: nodes, ScrapeInterval: 10 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "std-1") {
		t.Fatalf("Start with a duplicate node: err = %v", err)
	}
	want := []string{"std-1:ready", "std-2:ready", "std-1:notready", "std-2:notready"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("node events = %v, want %v", events, want)
	}
	if st.Clk.Step() {
		t.Fatal("a periodic is still live after a failed Start")
	}
}

// Without a scrape interval there is no monitoring plane: no TSDB and
// nothing on the clock. Observe without a registry attaches nothing.
func TestNoScrapeIntervalBuildsNoMonitoring(t *testing.T) {
	st := New()
	if err := st.Start(Config{Nodes: Fleet(1, 1, DefaultEPC, false)}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Observe(nil, 10*time.Second)
	if st.DB != nil || st.Tracker != nil {
		t.Fatalf("DB = %v, Tracker = %v; want neither", st.DB, st.Tracker)
	}
	if n := st.Clk.Len(); n != 0 {
		t.Fatalf("%d events on the clock, want none", n)
	}
}
