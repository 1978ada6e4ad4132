// Package kubelet is the per-node agent of the orchestrator substrate. It
// registers its machine as a cluster node (with EPC page resources
// advertised by the device plugin, §V-A), reacts to scheduler bindings by
// admitting pods, wires pod EPC limits into the modified SGX driver — the
// paper's 16-lines-of-Go / 22-lines-of-C Kubelet patch (§V-D) — launches
// the workloads, reports their completion, and serves per-pod usage
// statistics to the monitoring layer (§V-C).
package kubelet

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/cgroup"
	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/deviceplugin"
	"github.com/sgxorch/sgxorch/internal/machine"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stress"
)

// DefaultAdmissionLatency models the container-runtime work between a
// binding and the workload launch (image pull, Docker start). Waiting
// times in §VI-E include this component.
const DefaultAdmissionLatency = 500 * time.Millisecond

// PodStat is one pod's live usage on this node, scraped by the monitoring
// layer.
type PodStat struct {
	PodName string
	// MemoryBytes is the standard memory in use (Heapster's metric).
	MemoryBytes int64
	// EPCBytes is the EPC in use, derived from driver page counts (the
	// SGX probe's metric).
	EPCBytes int64
}

// Kubelet is one node agent.
type Kubelet struct {
	clk    clock.Clock
	srv    *apiserver.Server
	mach   *machine.Machine
	plugin *deviceplugin.SGXPlugin

	nodeName      string
	unschedulable bool

	mu          sync.Mutex
	pods        map[string]*podEntry
	unsubscribe func()
	started     bool

	// PodStats' buffers, reused by every call: the (name, cgroup) pairs
	// read under mu and the stats handed to the collector.
	statsMu  sync.Mutex
	statRefs []statRef
	stats    []PodStat
}

type statRef struct {
	name string
	cg   *cgroup.Cgroup
}

// podEntry is a binding's stay on this node, the one object the node side
// allocates for a one-workload pod: the bind arms the admission delay on
// its timer (Fire admits); admission builds the pod's cgroup record in it
// and puts it in k.pods while the record holds the node's devices; it is
// each workload's completion callback (Finished) and holds the first
// one's execution, with its process and step timer.
type podEntry struct {
	k          *Kubelet
	pod        *api.Pod
	admission  clock.Event
	cg         cgroup.Cgroup
	executions []*stress.Execution
	started    [1]*stress.Execution // executions' first backing array
	first      stress.Execution
	remaining  int
	firstErr   error
}

// Fire is the admission timer's clock.Handler.
func (e *podEntry) Fire() { e.k.admit(e) }

// Finished is stress.Config.OnFinished: one workload of the entry ended.
func (e *podEntry) Finished(err error) { e.k.containerFinished(e, err) }

// Option configures a Kubelet.
type Option func(*Kubelet)

// WithUnschedulable marks the node as excluded from scheduling (the
// Kubernetes master in the paper's cluster, §VI-A).
func WithUnschedulable() Option {
	return func(k *Kubelet) { k.unschedulable = true }
}

// New creates a kubelet for a machine. Call Start to join the cluster.
func New(clk clock.Clock, srv *apiserver.Server, mach *machine.Machine, opts ...Option) *Kubelet {
	k := &Kubelet{
		clk:      clk,
		srv:      srv,
		mach:     mach,
		nodeName: mach.Name(),
		pods:     make(map[string]*podEntry),
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

// NodeName returns the node this kubelet manages.
func (k *Kubelet) NodeName() string { return k.nodeName }

// Machine returns the underlying machine (for probes and tests).
func (k *Kubelet) Machine() *machine.Machine { return k.mach }

// Plugin returns the node's SGX device plugin, or nil.
func (k *Kubelet) Plugin() *deviceplugin.SGXPlugin { return k.plugin }

// Start registers the node — running the device-plugin detection to
// advertise EPC page resources — and begins watching for bindings.
func (k *Kubelet) Start() error {
	k.mu.Lock()
	if k.started {
		k.mu.Unlock()
		return fmt.Errorf("kubelet %s: already started", k.nodeName)
	}
	k.started = true
	k.mu.Unlock()

	alloc := resource.List{
		resource.Memory: k.mach.RAMBytes(),
		resource.CPU:    k.mach.CPUMillis(),
	}
	// Device-plugin registration: "Kubelet notifies the master node about
	// the availability of an SGX resource on that node" (§V-A).
	if plugin, ok := deviceplugin.Detect(k.mach); ok {
		k.plugin = plugin
		alloc[resource.EPCPages] = plugin.DeviceCount()
	}
	node := &api.Node{
		Name:          k.nodeName,
		Capacity:      alloc,
		Allocatable:   alloc,
		Ready:         true,
		Unschedulable: k.unschedulable,
	}
	if err := k.srv.RegisterNode(node); err != nil {
		return fmt.Errorf("kubelet %s: %w", k.nodeName, err)
	}
	// The kubelet reacts to bindings and terminations of its own pods, so
	// it watches its node's events alone; onEvent skips the rest of them
	// (node events, its pods' other transitions).
	k.unsubscribe = k.srv.SubscribeNode(k.nodeName, k.onEvents, k.resync)
	return nil
}

// Stop drains the node: it detaches from the API server, marks the node
// NotReady so the scheduler stops placing pods here, and aborts running
// workloads (their pods fail, as on a node drain).
func (k *Kubelet) Stop() {
	k.mu.Lock()
	unsub := k.unsubscribe
	k.unsubscribe = nil
	wasStarted := k.started
	// Abort in pod-name order: the failure events a drain emits must be
	// deterministic for identical runs to replay identically.
	names := make([]string, 0, len(k.pods))
	for name := range k.pods {
		names = append(names, name)
	}
	sort.Strings(names)
	var running []*stress.Execution
	for _, name := range names {
		running = append(running, k.pods[name].executions...)
	}
	k.mu.Unlock()
	if unsub != nil {
		unsub()
	}
	if wasStarted {
		if node, err := k.srv.GetNode(k.nodeName); err == nil && node.Ready {
			node = node.Clone()
			node.Ready = false
			// UpdateNode only fails for unknown nodes, which Start
			// registered.
			_ = k.srv.UpdateNode(node)
		}
	}
	for _, ex := range running {
		ex.Abort()
	}
}

// onEvents is the watch broker's batch callback: consecutive events in
// resource-version order. The slice is reused by the broker; nothing
// here retains it.
func (k *Kubelet) onEvents(evs []apiserver.WatchEvent) {
	for i := range evs {
		k.onEvent(evs[i])
	}
}

// resync is the broker's ring-overflow recovery, reachable only on an
// async-watch server: the kubelet missed events, so it reconciles its
// local pod set against the snapshot — admitting bindings it never saw
// and killing workloads whose pods were terminated or preempted while
// it was behind. Delivery resumes with the first event after snap.Rev.
func (k *Kubelet) resync(snap apiserver.Snapshot) {
	desired := make(map[string]*api.Pod)
	for _, p := range snap.Pods {
		if p.Spec.NodeName == k.nodeName && !p.IsTerminal() {
			desired[p.Name] = p
		}
	}
	k.mu.Lock()
	var staleExec []*stress.Execution
	for name, entry := range k.pods {
		if _, ok := desired[name]; ok {
			continue
		}
		// Same atomic remove+release discipline as the eviction event
		// path (see onEvent); in-flight launches detect the removal by
		// entry identity.
		delete(k.pods, name)
		staleExec = append(staleExec, entry.executions...)
		k.releaseLocked(entry)
	}
	launched := make(map[string]bool, len(k.pods))
	for name := range k.pods {
		launched[name] = true
	}
	k.mu.Unlock()
	for _, ex := range staleExec {
		ex.Abort()
	}
	// Sorted for deterministic admission order; admit re-validates
	// against authoritative state, so a pod that moved on since the
	// snapshot is skipped there.
	names := make([]string, 0, len(desired))
	for name := range desired {
		if !launched[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e := &podEntry{k: k, pod: desired[name]}
		k.clk.Arm(&e.admission, DefaultAdmissionLatency, e)
	}
}

func (k *Kubelet) onEvent(ev apiserver.WatchEvent) {
	if ev.Pod == nil {
		return
	}
	switch ev.Type {
	case apiserver.PodBound:
		if ev.Pod.Spec.NodeName == k.nodeName {
			// Container-runtime latency before the workload launches.
			e := &podEntry{k: k, pod: ev.Pod}
			k.clk.Arm(&e.admission, DefaultAdmissionLatency, e)
		}
	case apiserver.PodUpdated:
		// External terminal transitions (eviction) and preemptions (the
		// pod re-queued with its binding cleared) kill the local workload
		// and release its resources. A preempted pod no longer names this
		// node, so the match is on the locally admitted entry; updates for
		// pods this kubelet never admitted are no-ops, as are
		// self-reported completions (already deregistered).
		if !ev.Pod.IsTerminal() && ev.Pod.Spec.NodeName == k.nodeName {
			return
		}
		k.mu.Lock()
		entry, ok := k.pods[ev.Pod.Name]
		var executions []*stress.Execution
		if ok {
			// Remove and release atomically: an entry's device
			// allocation exists exactly while the entry is in k.pods, and
			// it is held on the entry's own cgroup record, so this can
			// never free what a newer admission of the same pod holds.
			// The admission's launch loop re-checks entry identity
			// against k.pods and aborts workloads started after this
			// removal.
			delete(k.pods, ev.Pod.Name)
			executions = append(executions, entry.executions...)
			k.releaseLocked(entry)
		}
		k.mu.Unlock()
		if !ok {
			return
		}
		for _, ex := range executions {
			ex.Abort()
		}
	}
}

// admit performs device allocation, limit registration and workload
// launch for the binding entry was built for.
func (k *Kubelet) admit(entry *podEntry) {
	pod := entry.pod
	// The binding can be undone during the admission latency — a
	// preemption re-queues the pod, and it may even have been re-bound
	// since. Launch only the binding this admission was scheduled for:
	// same node, same binding instant (a re-bind re-runs admit with the
	// fresh timestamps).
	cur, err := k.srv.GetPod(pod.Name)
	if err != nil || cur.IsTerminal() || cur.Spec.NodeName != k.nodeName ||
		!cur.Status.ScheduledAt.Equal(pod.Status.ScheduledAt) {
		return
	}
	// A bind→preempt→re-bind to this node within one simulated instant
	// leaves two pending admissions with equal ScheduledAt stamps, and a
	// broker resync can schedule an admission for a pod whose PodBound
	// event is still in flight. Check-claim-allocate runs as one
	// critical section: an entry in k.pods means an admission claimed
	// this pod AND its cgroup record holds the device allocation, so
	// duplicates bail, and a concurrent teardown (which removes and
	// releases atomically, see onEvent) releases exactly what this
	// admission's record holds — a newer admission of the same pod builds
	// a record of its own.
	epcReq := pod.TotalRequests().Get(resource.EPCPages)
	entry.cg = cgroup.ForPod(pod.UID, pod.Name)
	entry.executions = entry.started[:0]

	k.mu.Lock()
	if _, admitted := k.pods[pod.Name]; admitted {
		k.mu.Unlock()
		return
	}
	var failReason string
	if epcReq > 0 {
		switch {
		case k.plugin == nil:
			failReason = fmt.Sprintf("UnexpectedAdmissionError: no SGX device plugin on %s", k.nodeName)
		default:
			if _, err := k.plugin.Allocate(&entry.cg, epcReq); err != nil {
				// Mirrors Kubernetes' OutOfEpc admission failure when the
				// scheduler raced device accounting.
				failReason = "OutOfEPC: " + err.Error()
				break
			}
			// The Kubelet patch of §V-D: communicate the cgroup / EPC
			// page limit pair to the driver before containers start.
			// Missing limits fall back to the request, as resource
			// requests default limits in Kubernetes.
			limit := pod.TotalLimits().Get(resource.EPCPages)
			if limit == 0 {
				limit = epcReq
			}
			if err := k.mach.Driver().IoctlSetLimit(&entry.cg, limit); err != nil {
				k.plugin.Deallocate(&entry.cg)
				failReason = "SetLimit: " + err.Error()
			}
		}
	}
	if failReason == "" {
		k.pods[pod.Name] = entry
	}
	k.mu.Unlock()
	if failReason != "" {
		_ = k.srv.MarkFailed(pod.Name, failReason)
		return
	}

	workloads := 0
	for i := range pod.Spec.Containers {
		if pod.Spec.Containers[i].Workload.Kind != 0 {
			workloads++
		}
	}

	k.mu.Lock()
	if k.pods[pod.Name] != entry {
		// Torn down between claim and launch: the teardown already
		// aborted and released on removal.
		k.mu.Unlock()
		return
	}
	entry.remaining = workloads
	k.mu.Unlock()

	// MarkRunning errors only if the pod raced to a terminal state (or
	// was preempted off this node): withdraw the admission — unless a
	// teardown already removed and released it.
	if err := k.srv.MarkRunning(pod.Name); err != nil {
		k.mu.Lock()
		if k.pods[pod.Name] == entry {
			delete(k.pods, pod.Name)
			k.releaseLocked(entry)
		}
		k.mu.Unlock()
		return
	}

	if workloads == 0 {
		k.complete(entry, nil)
		return
	}
	inline := true // the first workload runs in the entry's execution
	for i := range pod.Spec.Containers {
		w := &pod.Spec.Containers[i].Workload
		if w.Kind == 0 {
			continue
		}
		ex := &entry.first
		if !inline {
			ex = new(stress.Execution)
		}
		inline = false
		err := ex.Start(k.clk, stress.Config{
			Machine:    k.mach,
			Cgroup:     &entry.cg,
			Spec:       *w,
			OnFinished: entry,
		})
		if err != nil {
			k.containerFinished(entry, err)
			continue
		}
		k.mu.Lock()
		if k.pods[pod.Name] != entry {
			// The entry was finalised mid-loop — a teardown
			// (eviction/preemption/resync) or an early sibling failure
			// that completed the pod — and whoever removed it could not
			// see this execution; undo the launch ourselves.
			k.mu.Unlock()
			ex.Abort()
			continue
		}
		entry.executions = append(entry.executions, ex)
		k.mu.Unlock()
	}
}

// containerFinished accounts one container completion; the pod
// terminates when all its containers have. The caller passes the entry
// its execution belongs to: a stale completion (an Abort issued by a
// teardown racing a re-admission of the same pod name) must not be
// attributed to the newer entry.
func (k *Kubelet) containerFinished(entry *podEntry, err error) {
	k.mu.Lock()
	if k.pods[entry.pod.Name] != entry {
		k.mu.Unlock()
		return
	}
	if err != nil && entry.firstErr == nil {
		entry.firstErr = err
	}
	entry.remaining--
	// Any container failure kills the pod at once — matching §VI-F, where
	// limit-violating jobs "are immediately killed after launch".
	done := entry.remaining <= 0 || entry.firstErr != nil
	firstErr := entry.firstErr
	k.mu.Unlock()
	if done {
		k.complete(entry, firstErr)
	}
}

// complete finalises a pod: the entry is deregistered and its devices
// released in one critical section (so late container callbacks —
// triggered by aborting siblings below — become no-ops, and a teardown
// that won the race is detected by entry identity), then the terminal
// phase is reported.
func (k *Kubelet) complete(entry *podEntry, err error) {
	podName := entry.pod.Name
	k.mu.Lock()
	if k.pods[podName] != entry {
		// An eviction/preemption/resync teardown beat us: it aborted
		// the executions and released the devices on removal.
		k.mu.Unlock()
		return
	}
	delete(k.pods, podName)
	executions := entry.executions
	k.releaseLocked(entry)
	k.mu.Unlock()

	// A failing container kills the whole pod.
	if err != nil {
		for _, ex := range executions {
			ex.Abort()
		}
		// Terminal-state races are benign during shutdown.
		_ = k.srv.MarkFailed(podName, err.Error())
		return
	}
	_ = k.srv.MarkSucceeded(podName)
}

// releaseLocked returns the device allocation the entry's cgroup record
// holds to the node. Caller must hold k.mu and must call this exactly at
// the point the entry leaves k.pods: the record, and its driver limit,
// die with the entry, and that pairing keeps device accounting exact
// across teardown/re-admission races.
func (k *Kubelet) releaseLocked(entry *podEntry) {
	if k.plugin != nil {
		k.plugin.Deallocate(&entry.cg)
	}
}

// PodStats reports per-pod usage for this node's pods — the stats
// endpoint Heapster and the SGX probe scrape (§V-C) — sorted by pod name
// so the metric write order, and with it the streaming aggregator's event
// order, is identical across identical runs. Each pod's figures are two
// reads of totals the machine and its SGX package keep on its cgroup
// record.
//
// The returned slice belongs to the kubelet and is valid until the next
// PodStats call, which refills it: a collector reads it before returning
// and never keeps it. Once the buffers have grown to the node's pod count
// a call allocates nothing.
func (k *Kubelet) PodStats() []PodStat {
	k.statsMu.Lock()
	defer k.statsMu.Unlock()
	refs := k.statRefs[:0]
	k.mu.Lock()
	for name, e := range k.pods {
		refs = append(refs, statRef{name: name, cg: &e.cg})
	}
	k.mu.Unlock()
	slices.SortFunc(refs, func(a, b statRef) int { return strings.Compare(a.name, b.name) })

	out := k.stats[:0]
	for _, r := range refs {
		vm, pages := k.mach.Usage(r.cg)
		out = append(out, PodStat{PodName: r.name, MemoryBytes: vm, EPCBytes: resource.BytesForPages(pages)})
	}
	k.statRefs, k.stats = refs, out
	return out
}
