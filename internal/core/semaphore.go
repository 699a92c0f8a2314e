package core

import (
	"sync"
	"sync/atomic"

	"gotaskflow/internal/executor"
)

// Semaphore limits how many tasks run concurrently in a section of the
// graph — Cpp-Taskflow's tf::Semaphore. A task that lists a semaphore in
// Acquire is only submitted to the executor once it has obtained a unit
// from every listed semaphore; it never occupies a worker while blocked.
// Tasks listing a semaphore in Release return units on completion, waking
// parked tasks. A semaphore with count 1 acquired and released by the
// same tasks forms a critical section.
type Semaphore struct {
	id uint64

	mu      sync.Mutex
	count   int
	waiters []*node
}

var semaphoreIDs atomic.Uint64

// NewSemaphore creates a semaphore with the given initial unit count.
func NewSemaphore(count int) *Semaphore {
	if count < 0 {
		panic("core: negative semaphore count")
	}
	return &Semaphore{id: semaphoreIDs.Add(1), count: count}
}

// Value returns the currently available units (a racy snapshot).
func (s *Semaphore) Value() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// tryAcquireOrPark takes one unit, or parks n on the waiter list. Returns
// whether the unit was obtained. A parked node is owned by the semaphore
// until a release hands it back.
func (s *Semaphore) tryAcquireOrPark(n *node) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 {
		s.count--
		return true
	}
	s.waiters = append(s.waiters, n)
	return false
}

// release returns one unit and pops a parked node, if any, whose
// admission the caller must retry.
func (s *Semaphore) release() *node {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	if len(s.waiters) == 0 {
		return nil
	}
	w := s.waiters[0]
	s.waiters = s.waiters[:copy(s.waiters, s.waiters[1:])]
	return w
}

// Acquire makes the task take one unit from each semaphore before it
// starts (per execution). The acquisition list is kept sorted by semaphore
// identity so tasks acquiring the same set cannot deadlock each other.
func (t Task) Acquire(sems ...*Semaphore) Task {
	ext := t.edit("Acquire").extra()
	for _, s := range sems {
		ext.acquires = insertSem(ext.acquires, s)
	}
	return t
}

// Release makes the task return one unit to each semaphore when its
// callable finishes (per execution).
func (t Task) Release(sems ...*Semaphore) Task {
	ext := t.edit("Release").extra()
	ext.releases = append(ext.releases, sems...)
	return t
}

func insertSem(list []*Semaphore, s *Semaphore) []*Semaphore {
	pos := len(list)
	for i, other := range list {
		if s.id < other.id {
			pos = i
			break
		}
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	return list
}

// submitter abstracts "where a semaphore-admitted task goes": a worker's
// scheduling Context during execution, or the topology's off-pool target
// at launch and retry time (offPool). Admission paths pass them directly
// instead of minting a method-value closure per call.
type submitter interface {
	Submit(r *executor.Runnable)
}

// target is a topology's off-pool destination (topology.out): an
// executor.Flow or the executor.Scheduler itself. Both fail only after
// shutdown; a flow never sheds pre-admitted work, so a mid-graph
// resubmission cannot be dropped and strand the topology.
type target interface {
	Submit(r *executor.Runnable) error
	SubmitBatch(rs []*executor.Runnable) error
}

// offPool adapts a topology's out to submitter. A hand-off there is
// best-effort: it fails only after shutdown, when the topology can no
// longer progress anyway. (*offPool)(t) is a pointer, so passing it as a
// submitter boxes without allocating.
type offPool topology

func (o *offPool) Submit(r *executor.Runnable) { _ = o.out.Submit(r) }

// admit obtains every semaphore of n or parks it on the first unavailable
// one, rolling back units already taken (waking their waiters through
// sub). Returns whether n may be submitted now.
func (t *topology) admit(sub submitter, n *node) bool {
	acquires := n.semAcquires()
	for i, s := range acquires {
		if s.tryAcquireOrPark(n) {
			continue
		}
		// Roll back the units taken so far; each may admit a waiter.
		for j := 0; j < i; j++ {
			t.handBack(sub, acquires[j])
		}
		return false
	}
	return true
}

// handBack releases one unit of s and retries admission of a woken
// waiter.
func (t *topology) handBack(sub submitter, s *Semaphore) {
	if w := s.release(); w != nil {
		wt := w.g.topo
		if wt.admit(sub, w) {
			sub.Submit(w.ref())
		}
	}
}

// releaseSems runs after n's callable: return units and admit waiters.
// The common no-semaphore case costs one nil check.
func (t *topology) releaseSems(sub submitter, n *node) {
	if n.ext == nil {
		return
	}
	for _, s := range n.ext.releases {
		t.handBack(sub, s)
	}
}
