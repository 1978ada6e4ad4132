// Package model is the reference model of the cluster: a pure, clock-free
// reducer from the API server's watch stream to the state it describes,
// the one referee of every safety claim checked by replaying it. The root
// package documentation says what Apply refuses and what it leaves out.
package model

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// The rules Apply enforces: every refusal wraps one.
var (
	ErrRev          = errors.New("model: rev is not the last rev + 1")
	ErrChargedTwice = errors.New("model: charge taken twice")
	ErrRunTwice     = errors.New("model: Running event for a pod already Running")
	ErrCommitNode   = errors.New("model: gang commit off its permit's node")
	ErrNegative     = errors.New("model: negative commitment")
	ErrOvercommit   = errors.New("model: commitment beyond what admission allows")
)

// Node is one node's capacity; Committed sums its pods' and permits' charges.
type Node struct{ Allocatable, Committed resource.List }

// Pod is one pod as the stream left it: Node is its binding (while Held,
// its permit's node; once terminal, where it ran), Charge what its last
// permit or bind charged, QueuedAt the rev it last entered the queue at.
type Pod struct {
	Node     string
	Phase    api.PodPhase
	Class    api.WorkloadClass
	Priority int32
	Charge   resource.List
	Held     bool
	QueuedAt int64
}

// placed reports a pod holding a charge: bound and live, or held.
func (p *Pod) placed() bool {
	return p.Node != "" && p.Phase != api.PodSucceeded && p.Phase != api.PodFailed
}

// Gang is one pod group: its quorum, the first member's SubmittedAt and
// the ScheduledAt of the bind that first had MinMember members bound.
type Gang struct {
	MinMember           int
	SubmittedAt, FullAt time.Time
	members             []*Pod
}

// Count returns the members holding a permit, bound and live, and terminal.
func (g *Gang) Count() (held, bound, finished int) {
	for _, p := range g.members {
		switch {
		case p.Held:
			held++
		case p.placed():
			bound++
		case p.Phase == api.PodSucceeded || p.Phase == api.PodFailed:
			finished++
		}
	}
	return held, bound, finished
}

// Partial reports a gang placed short of its quorum with no permit left to
// complete it. Finished members count toward the quorum.
func (g *Gang) Partial() bool {
	held, bound, finished := g.Count()
	return held == 0 && bound > 0 && bound+finished < g.MinMember
}

// Transitions counts PodBound events, Running events (one per binding:
// Apply refuses a second) and bound pods preempted back to the queue.
type Transitions struct{ Binds, Runs, Preemptions int }

// Cluster is the state the stream describes; its fields are read-only to
// callers. Total sums every node; ByClass is indexed by class slot.
type Cluster struct {
	Nodes     map[string]*Node
	Pods      map[string]*Pod
	Gangs     map[string]*Gang
	Total     Node
	ByClass   [api.NumClasses]Transitions
	admission apiserver.Admission
	rev       int64
	spare     []Pod // new pods' records, carved from chunks of 128
}

// New returns an empty model of a server admitting binds in mode.
func New(mode apiserver.Admission) *Cluster {
	return &Cluster{Nodes: map[string]*Node{}, Pods: map[string]*Pod{}, Gangs: map[string]*Gang{}, admission: mode}
}

// Apply folds one event into the model, or refuses it and changes nothing
// but the last rev, which never moves back. The first event sets the base
// rev. A permit charges like a bind; the gang commit moves no capacity.
func (c *Cluster) Apply(ev apiserver.WatchEvent) error {
	if last := c.rev; last != 0 && ev.Rev != last+1 {
		c.rev = max(last, ev.Rev)
		return fmt.Errorf("%w: %d after %d", ErrRev, ev.Rev, last)
	}
	c.rev = ev.Rev
	if ev.Pod == nil {
		n := c.node(ev.Node.Name)
		c.Total.Allocatable = c.Total.Allocatable.Sub(n.Allocatable).Add(ev.Node.Allocatable)
		n.Allocatable = ev.Node.Allocatable
		return nil
	}
	name, node, phase, req := ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase, ev.Pod.TotalRequests()
	p, known := c.Pods[name]
	if !known {
		if len(c.spare) == 0 {
			c.spare = make([]Pod, 128)
		}
		p, c.spare = &c.spare[0], c.spare[1:]
		*p = Pod{Class: ev.Pod.Spec.WorkloadClass(), Priority: ev.Pod.Spec.Priority, QueuedAt: ev.Rev}
	}
	charge := ev.Type == apiserver.PodPermitHeld || ev.Type == apiserver.PodBound && !p.Held
	switch {
	case charge && p.placed():
		return fmt.Errorf("%w: pod %s on %s, then on %s", ErrChargedTwice, name, p.Node, node)
	case charge:
		if err := c.admit(name, node, req); err != nil {
			return err
		}
	case ev.Type == apiserver.PodBound && node != p.Node:
		return fmt.Errorf("%w: pod %s holds %s, committed onto %s", ErrCommitNode, name, p.Node, node)
	case phase == api.PodRunning && p.Phase == api.PodRunning:
		return fmt.Errorf("%w: pod %s on %s", ErrRunTwice, name, node)
	}
	requeued := p.placed() && node == "" && phase == api.PodPending
	switch tally := &c.ByClass[p.Class.Slot()]; {
	case ev.Type == apiserver.PodBound:
		tally.Binds++
	case ev.Type == apiserver.PodUpdated && requeued:
		tally.Preemptions++
	case ev.Type == apiserver.PodUpdated && phase == api.PodRunning:
		tally.Runs++
	}
	if requeued {
		p.QueuedAt = ev.Rev
	}
	if p.placed() && (node == "" || ev.Pod.IsTerminal()) {
		c.commit(p.Node, resource.List{}.Sub(p.Charge))
	}
	if charge {
		p.Charge = req
		c.commit(node, req)
	}
	p.Node, p.Phase, p.Held = node, phase, ev.Type == apiserver.PodPermitHeld
	c.Pods[name] = p
	if group := ev.Pod.Spec.PodGroup; group != "" {
		g := c.Gangs[group]
		if g == nil {
			g = &Gang{MinMember: ev.Pod.Spec.GangMinMember(), SubmittedAt: ev.Pod.Status.SubmittedAt}
			c.Gangs[group] = g
		}
		if !known {
			g.members = append(g.members, p)
		}
		if _, bound, _ := g.Count(); ev.Type == apiserver.PodBound && bound >= g.MinMember && g.FullAt.IsZero() {
			g.FullAt = ev.Pod.Status.ScheduledAt
		}
	}
	return nil
}

func (c *Cluster) node(name string) *Node {
	if c.Nodes[name] == nil {
		c.Nodes[name] = &Node{}
	}
	return c.Nodes[name]
}

// commit adds delta to the node's and the cluster's commitment.
func (c *Cluster) commit(node string, delta resource.List) {
	n := c.node(node)
	n.Committed = n.Committed.Add(delta)
	c.Total.Committed = c.Total.Committed.Add(delta)
}

// admit checks what a charge of req leaves on the node: never negative,
// and within allocatable where the mode admits — EPC under AdmitGuarded,
// everything under AdmitStrict. Releases give back exactly their charge.
func (c *Cluster) admit(pod, node string, req resource.List) error {
	var n Node
	if c.Nodes[node] != nil {
		n = *c.Nodes[node]
	}
	for i, v := range n.Committed.Add(req) {
		r := resource.Name(i)
		limited := c.admission == apiserver.AdmitStrict || c.admission == apiserver.AdmitGuarded && r == resource.EPCPages
		switch {
		case v < 0:
			return fmt.Errorf("%w: pod %s leaves %s at %s=%d", ErrNegative, pod, node, r, v)
		case limited && req[r] > 0 && v > n.Allocatable[r]:
			return fmt.Errorf("%w: pod %s leaves %s at %s=%d of %d", ErrOvercommit, pod, node, r, v, n.Allocatable[r])
		}
	}
	return nil
}

// Pending returns the queued pods, highest priority first, then in the
// order they entered the queue.
func (c *Cluster) Pending() []string {
	var names []string
	for name, p := range c.Pods {
		if p.Phase == api.PodPending && p.Node == "" {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := c.Pods[names[i]], c.Pods[names[j]]
		return a.Priority > b.Priority || a.Priority == b.Priority && a.QueuedAt < b.QueuedAt
	})
	return names
}
