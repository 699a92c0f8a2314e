package executor

// The work-sharing half of Algorithm 1: the queue for tasks submitted from
// outside the pool. It is one type, Queue, behind the injection queue and
// behind every multi-tenant flow (a FlowQueue is a Queue plus admission
// state), and both drivers use it: the worker pool and internal/sim build the
// injection queue with NewInjection and the flows with a FlowTable, push with
// SubmitBatch and drain with Take. What differs between the two is behind
// QueueHost.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// injInitialCap is the initial capacity of each queue's ring. Small: most
// work flows through worker-local deques; external submission is the
// topology-dispatch path.
const injInitialCap = 64

// injShrinkCap is the capacity floor below which a ring never shrinks.
const injShrinkCap = 1024

// NewInjection builds a scheduler's injection queue: the one FIFO every
// external producer pushes onto and every worker drains (Algorithm 1's
// shared queue). It is its own allocation, so its lock line shares no cache
// line with the scheduler's read-mostly fields.
func NewInjection(host QueueHost) *Queue {
	q := new(Queue)
	q.init(host, nil, "", 0)
	return q
}

// QueueHost is the scheduler a Queue is registered on: the two facts about a
// submission that belong to the scheduler and not to the queue.
type QueueHost interface {
	// Stopped reports whether the scheduler has shut down; SubmitBatch (and a
	// flow's Admit) then refuse with ErrShutdown.
	Stopped() bool
	// Published runs after n tasks entered q and its gauges were published:
	// the host wakes up to n workers (and records what it records about a
	// submission).
	Published(q *Queue, n int)
}

// cacheLine is the line size the Queue layout is cut for.
const cacheLine = 64

// Queue is one lock-guarded FIFO of externally submitted tasks. The lock,
// the ring and the drain count share the first cache line: all a push or a
// drain writes under the lock is on that line. The ring's indices
// count every task ever pushed (tail) and popped (head), so the queue's
// counters are always on and cost no atomic.
//
// len is published outside the lock, on a line of its own (after the push,
// before the host's wake), so workers check for work without acquiring
// anything; it can read transiently negative when a drain lands between a
// producer's unlock and its Add — readers treat <= 0 as empty. A flow's
// queue moves its class's backlog gauge the same way.
type Queue struct {
	mu     sync.Mutex
	ring   taskRing
	drains uint64 // Take calls that moved at least one task; under mu

	len atomic.Int64
	_   [cacheLine - 8]byte

	host    QueueHost
	backlog *atomic.Int64 // the class gauge of a flow's queue; nil for injection
	name    string        // the flow's name; empty for injection
	id      int           // trace id: the queue field of injectArg
	_       [16]byte      // to a whole number of lines: a flow's admission state starts a line
}

func (q *Queue) init(host QueueHost, backlog *atomic.Int64, name string, id int) {
	q.host, q.backlog, q.name, q.id = host, backlog, name, id
	q.ring.init(injInitialCap)
}

// TraceID returns the queue's id in EvInjectPush/EvInjectDrain args: 0 for
// the injection queue, flowTraceBase plus the registration index for a
// flow.
func (q *Queue) TraceID() int { return q.id }

// Backlog returns the queue's published task count (a gauge, never negative).
func (q *Queue) Backlog() int { return int(max(q.len.Load(), 0)) }

// Submit enqueues one task, a batch of one.
func (q *Queue) Submit(r *Runnable) error {
	rs := [1]*Runnable{r}
	return q.SubmitBatch(rs[:])
}

// SubmitBatch enqueues rs as one FIFO batch under one lock, accepted whole
// or rejected whole with ErrShutdown, and hands the host one publication for
// the whole batch.
func (q *Queue) SubmitBatch(rs []*Runnable) error {
	if len(rs) == 0 {
		return nil
	}
	if q.host.Stopped() {
		return ErrShutdown
	}
	q.push(rs)
	q.host.Published(q, len(rs))
	return nil
}

// push appends rs and publishes the gauges before any wake: a parking worker
// that the wake misses has not re-checked anyWork yet and will see them.
func (q *Queue) push(rs []*Runnable) {
	q.mu.Lock()
	q.ring.pushBatch(rs)
	q.mu.Unlock()
	q.len.Add(int64(len(rs)))
	if q.backlog != nil {
		q.backlog.Add(int64(len(rs)))
	}
}

// Take removes up to len(dst) of the oldest tasks into dst under one lock
// acquisition and accounts for them as one drain operation. It returns the
// number moved; 0 means the queue was empty by the time the lock was held,
// or dst is empty, in which case the lock is not taken. The policy size of
// dst is wsq.StealQuota(q.Backlog()).
func (q *Queue) Take(dst []*Runnable) int {
	if len(dst) == 0 {
		return 0
	}
	q.mu.Lock()
	k := q.ring.popN(dst)
	if k == 0 {
		q.mu.Unlock()
		return 0
	}
	q.drains++
	q.mu.Unlock()
	q.len.Add(-int64(k))
	if q.backlog != nil {
		q.backlog.Add(-int64(k))
	}
	return k
}

// Stats reads the queue's counters under its lock: one consistent reading.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Pushes:       uint64(q.ring.tail),
		Drains:       q.drains,
		DrainedTasks: uint64(q.ring.head),
		Depth:        q.ring.len(),
	}
}

// CheckQueueLaws checks the laws every Queue obeys at quiescence (no task
// queued, no drain in progress): every task pushed was drained and nothing is
// left, and the queues' own drain counters sum to the scheduler-side ones
// (drain operations that found work, and the tasks they moved). It is the
// one statement of these laws, for the injection queue and the flows alike:
// Snapshot.Reconcile holds the worker pool to it and sim's CheckQueues the
// simulator. kind names the queues in an error.
func CheckQueueLaws(kind string, qs []QueueStats, drainOps, drainedTasks uint64) error {
	var ops, drained uint64
	for i, q := range qs {
		if q.Pushes != q.DrainedTasks || q.Depth != 0 {
			return fmt.Errorf("%s %d pushes %d != drained tasks %d (backlog %d)",
				kind, i, q.Pushes, q.DrainedTasks, q.Depth)
		}
		ops += q.Drains
		drained += q.DrainedTasks
	}
	if ops != drainOps {
		return fmt.Errorf("%s drain ops %d != scheduler %s drain ops %d", kind, ops, kind, drainOps)
	}
	if drained != drainedTasks {
		return fmt.Errorf("%s drained tasks %d != scheduler %s drained tasks %d", kind, drained, kind, drainedTasks)
	}
	return nil
}

// taskRing is a growable power-of-two ring buffer of task references — the
// storage behind Queue. A drained ring reuses its slots instead of marching
// through (and retaining) an ever-growing backing array, and it shrinks back
// after bursts so capacity stays proportional to the backlog its producers
// actually build. All methods are called with the owning queue's lock held.
type taskRing struct {
	buf  []*Runnable
	head int64 // next slot to pop: tasks ever popped
	tail int64 // next slot to push: tasks ever pushed; length = tail - head

	// peak is the deepest backlog since the ring was last empty, lastPeak
	// the same for the fill/drain cycle before. The ring never shrinks
	// below lastPeak: a topology re-Run pushes the same source batch every
	// cycle, and shrinking behind it would reallocate the ring twice per
	// run forever. A one-off spike still decays — it stops being the
	// previous cycle as soon as one ordinary cycle has followed it. Two
	// int32s (saturating) keep the ring and the queue's lock in one line.
	peak, lastPeak int32
}

func (q *taskRing) init(capacity int) {
	q.buf = make([]*Runnable, capacity)
}

func (q *taskRing) len() int { return int(q.tail - q.head) }

// resize moves the live window [head, tail) into a fresh buffer of the
// given power-of-two capacity.
func (q *taskRing) resize(capacity int64) {
	buf := make([]*Runnable, capacity)
	mask := int64(len(q.buf) - 1)
	for i := q.head; i < q.tail; i++ {
		buf[i&(capacity-1)] = q.buf[i&mask]
	}
	q.buf = buf
}

func (q *taskRing) pushBatch(rs []*Runnable) {
	need := q.tail - q.head + int64(len(rs))
	if need > int64(len(q.buf)) {
		c := int64(len(q.buf)) * 2
		for c < need {
			c *= 2
		}
		q.resize(c)
	}
	mask := int64(len(q.buf) - 1)
	for _, r := range rs {
		q.buf[q.tail&mask] = r
		q.tail++
	}
	q.peak = max(q.peak, int32(min(need, math.MaxInt32)))
}

// popN removes up to len(dst) of the oldest tasks into dst and returns how
// many were moved. One lock acquisition (and one shrink check) covers the
// whole batch, amortizing the drain cost of a deep backlog.
func (q *taskRing) popN(dst []*Runnable) int {
	n := min(int(q.tail-q.head), len(dst))
	if n == 0 {
		return 0
	}
	mask := int64(len(q.buf) - 1)
	for i := 0; i < n; i++ {
		j := q.head & mask
		dst[i] = q.buf[j]
		q.buf[j] = nil // release the task for GC
		q.head++
	}
	// Shrink after bursts: once the live backlog fits in a quarter of the
	// ring, halve it (down to the floor, and to what the last cycle needed).
	live := q.tail - q.head
	if c := int64(len(q.buf)); c > injShrinkCap && live*4 <= c && c/2 >= int64(q.lastPeak) {
		q.resize(c / 2)
	}
	if live == 0 {
		q.lastPeak, q.peak = q.peak, 0
	}
	return n
}
