package executor

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// injInitialCap is the initial capacity of each injection shard's ring.
// Small: most work flows through worker-local deques; external submission
// is the topology-dispatch path.
const injInitialCap = 64

// injShrinkCap is the capacity floor below which a shard's ring never
// shrinks.
const injShrinkCap = 1024

// injMaxShards caps the injection shard count: beyond ~16 shards the
// sweep cost of an idle worker checking every shard outweighs the
// contention relief.
const injMaxShards = 16

// InjectionShards sizes the injection queue for n workers: one shard per
// four-worker group, rounded up to a power of two (so shard selection is a
// mask), capped at injMaxShards. Small pools keep a single ring and pay
// nothing for the sharding. internal/sim models the same number of shards.
func InjectionShards(n int) int {
	s := 1
	for s*4 < n && s < injMaxShards {
		s <<= 1
	}
	return s
}

// injShard is one lock-guarded ring of the sharded injection queue.
// External producers hash their task pointer to a shard; each worker
// drains its home shard (worker id mod shards) first and sweeps the others
// only when home is empty, so at high core counts producer groups and
// worker groups meet on different locks instead of one.
//
// len is published outside the lock (after push, before the wake), so
// workers check for external work without acquiring anything; it can read
// transiently negative when a drain lands between a producer's unlock and
// its Add — readers treat <= 0 as empty.
type injShard struct {
	mu   sync.Mutex
	ring taskRing
	len  atomic.Int64
}

// injShardPad pads shards to 128 bytes (two cache lines) so producers
// hammering adjacent shards do not false-share.
const injShardPad = 128

type paddedInjShard struct {
	injShard
	_ [injShardPad - unsafe.Sizeof(injShard{})%injShardPad]byte
}

// taskRing is a growable power-of-two ring buffer of task references — the
// storage behind the executor's external injection queue. Unlike the
// append/re-slice queue it replaces, a drained ring reuses its slots instead
// of marching through (and retaining) an ever-growing backing array, and it
// shrinks back after bursts so capacity stays proportional to the backlog
// its producers actually build. All methods are called with the owning
// shard's or flow's lock held.
type taskRing struct {
	buf  []*Runnable
	head int64 // next slot to pop
	tail int64 // next slot to push; length = tail - head

	// peak is the deepest backlog since the ring was last empty, lastPeak
	// the same for the fill/drain cycle before. The ring never shrinks
	// below lastPeak: a topology re-Run pushes the same source batch every
	// cycle, and shrinking behind it would reallocate the ring twice per
	// run forever. A one-off spike still decays — it stops being the
	// previous cycle as soon as one ordinary cycle has followed it.
	peak, lastPeak int64
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
	q.peak = max(q.peak, need)
}

// popN removes up to len(dst) of the oldest tasks into dst and returns how
// many were moved. One lock acquisition (and one shrink check) covers the
// whole batch, amortizing the drain cost of a deep backlog.
func (q *taskRing) popN(dst []*Runnable) int {
	n := int(q.tail - q.head)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
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
	if c := int64(len(q.buf)); c > injShrinkCap && live*4 <= c && c/2 >= q.lastPeak {
		q.resize(c / 2)
	}
	if live == 0 {
		q.lastPeak, q.peak = q.peak, 0
	}
	return n
}
