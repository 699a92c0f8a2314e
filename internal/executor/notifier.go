package executor

// Lock-free eventcount — the structure Taskflow's successor system adopted
// for its scheduler (arXiv:2004.10908 §V), here modeled on the Eigen/Dekker
// eventcount design. It replaces the mutex-guarded idlers list: producers
// wake workers without ever taking a lock, and the fast path when nobody is
// parked is a single atomic load.
//
// The protocol is two-phase to close the classic lost-wakeup window of a
// naive check-then-park loop:
//
//	waiter:   Prewait()             // announce intent to sleep
//	          if work visible:      // re-check AFTER announcing
//	              CancelWait()      // never sleeps
//	          else if CommitWait(id):
//	              park              // until a notify returns id
//	producer: publish work          // queue push
//	          Notify(n, unpark)     // AFTER the work is visible; it
//	                                // unparks each slot it pops
//
// Both the waiter's Prewait and the producer's notify are sequentially
// consistent atomics on one state word, so at least one side observes the
// other: either the waiter's re-check sees the producer's work, or the
// producer's notify sees the waiter's announcement and leaves it a signal
// (consumed by CommitWait, which then says not to park) or pops it off the
// waiter stack and hands its slot to the caller's unpark. There is no
// interleaving in which the work is published, the notify is a no-op, and
// the waiter still parks.
//
// The eventcount itself never blocks: it decides who parks and who is
// woken, and the caller parks and unparks. The worker pool parks a
// goroutine on a per-worker channel; the simulator (internal/sim) steps the
// same methods from one goroutine, flipping a modelled worker's state.
//
// All waiter bookkeeping is packed into one 64-bit state word:
//
//	bits  0..15  stack    index of the top parked waiter (all-ones = empty)
//	bits 16..31  waiters  count of threads between prewait and commit/cancel
//	bits 32..47  signals  count of banked wakeups for prewaiting threads
//	bits 48..63  epoch    ABA stamp of the stack top (see below)
//
// Parked waiters form an intrusive LIFO stack threaded through per-worker
// slots: CommitWait CASes its own slot index (stamped with the slot's
// current epoch) into the stack bits and stores the previous stack+epoch
// bits into its slot's next word. The epoch stamp makes the CAS fail if
// the same waiter was popped and re-pushed in between (the ABA hazard of
// any pointer-CAS stack); each park cycle increments the slot's epoch.
// A 16-bit epoch wraps after 65536 park cycles of one slot — for a stale
// CAS to succeed, a notifier would have to stall across exactly that many
// cycles and find the counts otherwise identical, the same odds the Eigen
// implementation accepts.
//
// A slot on the stack is popped by exactly one notify, which hands it to
// unpark exactly once, so an unpark that is one send on the slot's
// buffered(1) channel never blocks and leaves no stale tokens.

import (
	"sync/atomic"
	"unsafe"
)

const (
	notifStackBits   = 16
	notifStackMask   = uint64(1)<<notifStackBits - 1 // all-ones index = empty stack
	notifWaiterShift = notifStackBits
	notifWaiterBits  = 16
	notifWaiterMask  = (uint64(1)<<notifWaiterBits - 1) << notifWaiterShift
	notifWaiterInc   = uint64(1) << notifWaiterShift
	notifSignalShift = notifWaiterShift + notifWaiterBits
	notifSignalBits  = 16
	notifSignalMask  = (uint64(1)<<notifSignalBits - 1) << notifSignalShift
	notifSignalInc   = uint64(1) << notifSignalShift
	notifEpochShift  = notifSignalShift + notifSignalBits
	notifEpochBits   = 16
	notifEpochMask   = (uint64(1)<<notifEpochBits - 1) << notifEpochShift
	notifEpochInc    = uint64(1) << notifEpochShift
)

// maxNotifyWaiters bounds the worker count the packed state word can
// address (one index is reserved as the empty-stack marker).
const maxNotifyWaiters = int(notifStackMask)

// notifyWaiter is one worker's waiter slot.
type notifyWaiter struct {
	// next holds the (stack|epoch) bits of the state word at push time —
	// the rest of the intrusive stack below this waiter. Written by the
	// owning worker before the publishing CAS, read by the notifier that
	// pops it; the CAS pair orders the accesses.
	next atomic.Uint64
	// epoch is this slot's pre-shifted ABA stamp, bumped once per park
	// cycle. Owner-written between parks; notifiers read it only packed
	// inside the state word.
	epoch uint64
}

// notifPad pads waiter slots to 128 bytes (two cache lines) so adjacent
// workers' park/wake traffic never shares a line.
const notifPad = 128

type paddedNotifyWaiter struct {
	notifyWaiter
	_ [notifPad - unsafe.Sizeof(notifyWaiter{})%notifPad]byte
}

// Eventcount is the park/wake protocol of Algorithm 1 (lines 5-15) for a
// fixed set of waiter slots 0..n-1, one per worker. Allocated once; never
// allocates afterwards.
type Eventcount struct {
	state   atomic.Uint64
	waiters []paddedNotifyWaiter
}

// NewEventcount returns an idle eventcount for n waiter slots.
func NewEventcount(n int) *Eventcount {
	if n > maxNotifyWaiters {
		panic("executor: worker count exceeds notifier capacity")
	}
	ec := &Eventcount{waiters: make([]paddedNotifyWaiter, n)}
	ec.state.Store(notifStackMask) // empty stack, no waiters, no signals
	for i := range ec.waiters {
		ec.waiters[i].next.Store(notifStackMask)
	}
	return ec
}

// Prewait announces intent to park. The caller must re-check its work
// sources afterwards and then call exactly one of CommitWait or
// CancelWait.
func (ec *Eventcount) Prewait() {
	ec.state.Add(notifWaiterInc)
}

// CommitWait completes the announcement of waiter slot id: it moves the
// caller from the prewait count onto the waiter stack and reports true —
// the caller must now park until a notify returns id — unless a notify
// that ran between Prewait and now banked a signal, in which case the
// signal is consumed and CommitWait reports false: do not park.
func (ec *Eventcount) CommitWait(id int) (park bool) {
	w := &ec.waiters[id].notifyWaiter
	me := uint64(id) | w.epoch
	state := ec.state.Load()
	for {
		var newState uint64
		signaled := state&notifSignalMask != 0
		if signaled {
			// A notify already paid for this wait: consume the signal and
			// leave without parking.
			newState = state - notifWaiterInc - notifSignalInc
		} else {
			// Leave the prewait count and push this slot onto the stack,
			// remembering the previous (stack|epoch) bits as our next.
			newState = (state-notifWaiterInc)&^(notifStackMask|notifEpochMask) | me
			w.next.Store(state & (notifStackMask | notifEpochMask))
		}
		if ec.state.CompareAndSwap(state, newState) {
			if signaled {
				return false
			}
			w.epoch += notifEpochInc
			return true
		}
		state = ec.state.Load()
	}
}

// CancelWait retracts a Prewait: the caller found work on its re-check
// and will not park. If a notify has already banked one signal per
// prewaiting thread, one of those signals was addressed to this thread
// and is consumed with it (the work it advertised is being processed by
// the canceller anyway).
func (ec *Eventcount) CancelWait() {
	state := ec.state.Load()
	for {
		newState := state - notifWaiterInc
		waiters := (state & notifWaiterMask) >> notifWaiterShift
		signals := (state & notifSignalMask) >> notifSignalShift
		if waiters == signals {
			newState -= notifSignalInc
		}
		if ec.state.CompareAndSwap(state, newState) {
			return
		}
		state = ec.state.Load()
	}
}

// Notify wakes up to n waiters and returns how many it woke. Each wake
// first banks a signal for a thread still between Prewait and CommitWait
// (its CommitWait will consume it: no unpark), and once every prewaiter
// holds one pops the top of the waiter stack and calls unpark with its
// slot. It stops early — after a single atomic load, with no stores — when
// nobody is left to wake, which is the producers' fast path on a busy pool.
func (ec *Eventcount) Notify(n int, unpark func(id int)) int {
	woke := 0
	state := ec.state.Load()
	for woke < n {
		waiters := (state & notifWaiterMask) >> notifWaiterShift
		signals := (state & notifSignalMask) >> notifSignalShift
		stackTop := state & notifStackMask
		if stackTop == notifStackMask && waiters == signals {
			break // nobody (left) to wake
		}
		banked := signals < waiters
		var newState uint64
		if banked {
			newState = state + notifSignalInc
		} else {
			w := &ec.waiters[stackTop].notifyWaiter
			newState = state&^(notifStackMask|notifEpochMask) | w.next.Load()
		}
		if !ec.state.CompareAndSwap(state, newState) {
			state = ec.state.Load()
			continue
		}
		woke++
		if !banked {
			unpark(int(stackTop))
		}
		state = newState
	}
	return woke
}

// NotifyAll wakes every current waiter: one signal is banked per
// prewaiting thread and the whole stack is taken in one CAS, then unpark
// is called once per popped slot. Reports whether anyone was there to
// wake.
func (ec *Eventcount) NotifyAll(unpark func(id int)) bool {
	state := ec.state.Load()
	for {
		waiters := (state & notifWaiterMask) >> notifWaiterShift
		signals := (state & notifSignalMask) >> notifSignalShift
		stackTop := state & notifStackMask
		if stackTop == notifStackMask && waiters == signals {
			return false
		}
		newState := state&notifWaiterMask | waiters<<notifSignalShift | notifStackMask
		if ec.state.CompareAndSwap(state, newState) {
			for stackTop != notifStackMask {
				w := &ec.waiters[stackTop].notifyWaiter
				id := int(stackTop)
				stackTop = w.next.Load() & notifStackMask
				unpark(id)
			}
			return true
		}
		state = ec.state.Load()
	}
}

// epochOf returns slot id's park-cycle count — the epoch stamp traced on
// park/unpark events. Owner-read only; it is exact for the calling worker.
func (ec *Eventcount) epochOf(id int) uint64 {
	return ec.waiters[id].epoch >> notifEpochShift
}
