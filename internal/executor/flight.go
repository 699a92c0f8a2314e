package executor

// Flight recorder: the continuously-armed reader of the event rings in
// trace.go. A capture session must be started before the interesting
// moment; an executor built WithFlightRecorder records for its whole
// lifetime, so a snapshot at any moment yields each worker's last
// capacity scheduler decisions — the dump the stall watchdog attaches to
// its report. It adds no storage and no record path: it keeps the rings'
// writers always on (so internal/core emits its task and dependency
// events continuously too) and reads their trailing window.

// defaultFlightCapacity is the per-ring window when WithFlightRecorder is
// given a non-positive capacity: 4K events per worker keeps the black box
// under ~350 KiB per worker while still holding seconds of steady-state
// scheduling.
const defaultFlightCapacity = 1 << 12

// WithFlightRecorder arms continuous event recording with a per-worker
// window of capacity events (<= 0 selects the default). Unlike WithTracing
// there is no Start/Stop: FlightSnapshot returns the recent window at any
// moment. Composes with WithTracing — a capture session and the black box
// are two readers of the same rings, sized for the larger of the two.
func WithFlightRecorder(capacity int) Option {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return func(e *Executor) { e.flightCap = capacity }
}

// FlightEnabled reports whether the executor was built
// WithFlightRecorder.
func (e *Executor) FlightEnabled() bool { return e.flightCap > 0 }

// FlightSnapshot copies each ring's newest capacity events into a merged,
// time-ordered Trace without stopping recording. ok is false when the
// executor was built without WithFlightRecorder. Trace.Dropped counts
// exactly the events recorded before the window, so Dropped > 0 simply
// means the box has been running longer than its window — expected in
// steady state.
func (e *Executor) FlightSnapshot() (Trace, bool) {
	if e.flightCap <= 0 {
		return Trace{}, false
	}
	return e.spine.read(&e.spine.born, e.spine.flightCap), true
}
