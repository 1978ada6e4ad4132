package apiserver

import (
	"sync"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
)

// maxEvents bounds the retained human-readable event log.
const maxEvents = 16384

// The kinds of object the event log names.
const (
	kindPod  = "pod"
	kindNode = "node"
)

// logEntry is one retained event. It keeps the object's kind and name
// apart and snapshot renders api.Event.Object from them, so recording a
// commit concatenates nothing.
type logEntry struct {
	time                        time.Time
	kind, name, reason, message string
}

// eventLog is a bounded ring of human-readable events — the `kubectl get
// events` analogue. It has its own mutex (a leaf in the lock order,
// below the state stripes) so recording an event never extends a
// stripe's critical section beyond the O(1) append, and long runs
// overwrite the oldest entries instead of growing without limit. Like
// the watch rings, the buffer grows geometrically (64 entries, doubling,
// up to capacity) rather than being allocated whole: a log is created
// per server, and most servers retain a fraction of the bound.
type eventLog struct {
	mu       sync.Mutex
	buf      []logEntry // len(buf) events retained; a ring once len == capacity
	capacity int
	start    int // index of the oldest retained event; 0 until the ring is full
}

func newEventLog(capacity int) *eventLog {
	return &eventLog{capacity: capacity}
}

// append records one event, evicting the oldest when full.
func (l *eventLog) append(e logEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == l.capacity {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		return
	}
	if len(l.buf) == cap(l.buf) {
		grown := make([]logEntry, len(l.buf), min(max(2*len(l.buf), 64), l.capacity))
		copy(grown, l.buf)
		l.buf = grown
	}
	l.buf = append(l.buf, e)
}

// snapshot returns a copy of the retained events, oldest first.
func (l *eventLog) snapshot() []api.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]api.Event, len(l.buf))
	for i := range out {
		e := &l.buf[(l.start+i)%len(l.buf)]
		out[i] = api.Event{
			Time:    e.time,
			Object:  e.kind + "/" + e.name,
			Reason:  e.reason,
			Message: e.message,
		}
	}
	return out
}
