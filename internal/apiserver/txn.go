package apiserver

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
)

// txn is the one commit transaction every mutator runs in — the only
// code that locks or unlocks a state stripe on the write path, publishes
// to the broker or flushes it. A mutator begins a transaction, defers
// end, reaches state through pod and node, and announces each mutation
// with publish; every early return is then a plain `return err`, and the
// protocol's two ordering rules hold by construction instead of per call
// site:
//
//   - stripes are taken along the ladder (one pod stripe, then one node
//     stripe — see stripe.go) and released by end in reverse order;
//   - a stripe taken is held until end, so whatever a mutation changed
//     under it — capacity released just as much as capacity charged — is
//     published before any other commit can observe it. A racing Bind
//     therefore can never publish a placement ahead of the release that
//     made room for it, and every prefix of the event stream is a
//     consistent cluster state.
//
// The stripe form (begin) serves single-pod and single-node operations;
// the world form (beginWorld) holds every stripe for the gang operations,
// whose guarantee is that no foreign commit interleaves. Both expose the
// same methods, so the per-pod mutation bodies below run unchanged under
// either. A txn is a stack value: it must not be copied after first use
// or outlive its function.
type txn struct {
	s         *Server
	psh       *podShard  // stripe form: the pod stripe held
	nsh       *nodeShard // stripe form: the node stripe held
	world     bool       // world form: every stripe is held
	published bool
}

// begin opens a stripe-form transaction; stripes are taken on demand by
// pod and node.
func (s *Server) begin() txn { return txn{s: s} }

// beginWorld opens a world-form transaction: the whole ladder is held
// until end, so pod and node only look state up.
func (s *Server) beginWorld() txn {
	s.lockWorld()
	return txn{s: s, world: true}
}

// pod returns the named pod (nil when unknown), holding its stripe until
// end. The stripe form takes exactly one pod stripe, before its node
// stripe — anything else would climb the ladder backwards.
func (t *txn) pod(name string) *api.Pod {
	psh := t.s.podShardFor(name)
	if !t.world {
		if t.psh != nil || t.nsh != nil {
			panic("apiserver: txn takes one pod stripe, before its node stripe")
		}
		psh.mu.Lock()
		t.psh = psh
	}
	return psh.pods[name]
}

// node returns the stripe owning the named node, held until end. The
// stripe form takes exactly one node stripe.
func (t *txn) node(name string) *nodeShard {
	nsh := t.s.nodeShardFor(name)
	if !t.world {
		if t.nsh != nil {
			panic("apiserver: txn takes one node stripe")
		}
		nsh.mu.Lock()
		t.nsh = nsh
	}
	return nsh
}

// publish appends the event to the broker ring under node, the node it
// concerns ("" for none), whose SubscribeNode watchers it reaches besides
// the whole-stream ones, and returns the resource version the broker drew
// for it — an O(1) append that fixes the event's place in the one global
// order without running subscriber code. The watch stream is the server's
// only record of a commit. Because only end releases stripes, the event
// is published while every stripe the mutation touched is still held:
// lockWorld cannot observe an applied mutation whose event is still
// unpublished.
func (t *txn) publish(ev WatchEvent, node string) int64 {
	t.published = true
	return t.s.broker.Publish(node, ev, stampRev)
}

// stampRev writes the rev the broker drew into the event it appended.
func stampRev(ev *WatchEvent, rev int64) { ev.Rev = rev }

// end releases what the transaction holds, in reverse ladder order, and
// then delivers what it published (inline in synchronous mode, a no-op
// in async mode) — subscriber callbacks run with no server lock held. It
// is the only unlock site of the write path.
func (t *txn) end() {
	if t.world {
		t.s.unlockWorld()
	} else {
		if t.nsh != nil {
			t.nsh.mu.Unlock()
		}
		if t.psh != nil {
			t.psh.mu.Unlock()
		}
	}
	if t.published {
		t.s.broker.Flush()
	}
}

// nextVersion stores and returns the pod's next version, the one
// allocation of a pod commit: a copy of the stored struct that the commit
// edits and then publishes, the same pointer, as its event's pod (see
// WatchEvent). Versions share Spec.Containers, which nothing writes
// after CreatePod's deep clone.
func (t *txn) nextVersion(p *api.Pod) *api.Pod {
	v := *p
	t.s.podShardFor(p.Name).pods[p.Name] = &v
	return &v
}

// --- per-pod mutation bodies, shared by the single-pod operations
// (stripe form) and the gang operations (world form) ---

// placeable is the pod-state half of the conditional commit Bind and
// Reserve share: only an unbound, Pending pod holding no permit may be
// placed.
func (s *Server) placeable(p *api.Pod) error {
	if p.Spec.NodeName != "" {
		return fmt.Errorf("%w: pod %s already bound to %s", ErrConflict, p.Name, p.Spec.NodeName)
	}
	if p.Status.Phase != api.PodPending {
		return fmt.Errorf("%w: pod %s in phase %s", ErrConflict, p.Name, p.Status.Phase)
	}
	if node, held := s.reservedNode(p); held {
		return fmt.Errorf("%w: pod %s holds a gang permit on %s (use CommitGroup)",
			ErrConflict, p.Name, node)
	}
	return nil
}

// target takes the stripe of the node a pod is to be placed on and
// returns the node; an unknown one is refused.
func (t *txn) target(nodeName string) (*api.Node, error) {
	n, ok := t.node(nodeName).nodes[nodeName]
	if !ok {
		return nil, fmt.Errorf("%w: node %s", ErrNotFound, nodeName)
	}
	return n, nil
}

// charge is the node half of the conditional commit, on the node target
// returned: admission re-validated against authoritative node state,
// then the pod's requests moved into the node's committed accounting and
// the pod taken out of the pending index. A refusal publishes nothing: the
// caller gets the typed error, and Bind counts it (BindStats).
func (t *txn) charge(p *api.Pod, n *api.Node) error {
	nsh := t.s.nodeShardFor(n.Name)
	req := p.TotalRequests()
	com := nsh.committed[n.Name]
	if err := t.s.admitBind(p, n, com, req); err != nil {
		return err
	}
	nsh.committed[n.Name] = com.Add(req)
	t.s.removePending(p)
	return nil
}

// release returns the pod's requests from the node's committed
// accounting. The node stripe stays held until end, i.e. through the
// publish of whatever event announces the release.
func (t *txn) release(p *api.Pod, nodeName string) {
	nsh := t.node(nodeName)
	nsh.committed[nodeName] = nsh.committed[nodeName].Sub(p.TotalRequests())
}

// bindPod makes a charged pod bound: Bind right after charge, CommitGroup
// on the capacity Reserve charged.
func (t *txn) bindPod(p *api.Pod, nodeName string) {
	p = t.nextVersion(p)
	p.Spec.NodeName = nodeName
	p.Status.ScheduledAt = t.s.clk.Now()
	t.s.moveMember(p, memberBound, "")
	t.publish(WatchEvent{Type: PodBound, Pod: p}, nodeName)
}

// requeueBound evicts a bound pod back to the pending pods (Preempt,
// PreemptGroup): capacity released, binding cleared, scheduling
// timestamps reset, queued again from its event's rev. The event is the
// node's it left: the kubelet there kills the workload.
func (t *txn) requeueBound(p *api.Pod, reason string) {
	left := p.Spec.NodeName
	t.release(p, left)
	p = t.nextVersion(p)
	p.Spec.NodeName = ""
	p.Status.Phase = api.PodPending
	p.Status.Reason = reason
	p.Status.ScheduledAt = time.Time{}
	p.Status.StartedAt = time.Time{}
	t.s.moveMember(p, memberPending, "")
	t.s.pushPending(p, t.publish(WatchEvent{Type: PodUpdated, Pod: p}, left))
}

// rollbackPermit returns a permit holder to the pending pods
// (ReleaseGroup, PreemptGroup), releasing the capacity its permit
// reserved.
func (t *txn) rollbackPermit(p *api.Pod, reason string) {
	node, _ := t.s.moveMember(p, memberPending, "")
	t.release(p, node)
	p = t.nextVersion(p)
	p.Status.Reason = reason
	t.s.pushPending(p, t.publish(WatchEvent{Type: PodPermitReleased, Pod: p}, ""))
}
