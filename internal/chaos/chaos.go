// Package chaos is a deterministic fault-injection harness for exercising
// the executor's failure paths. An Injector wraps task bodies so that,
// with configured probabilities, a body panics, returns an error, or is
// delayed before running. Every decision is drawn from a single seeded
// PRNG at Wrap time — not at run time — so the injected fault plan is a
// pure function of (seed, wrap order) and cannot be perturbed by
// scheduling nondeterminism. Re-running a stress case with the same seed
// replays the same faults.
//
// The harness is used by the chaos stress suite (go test ./internal/chaos
// -race, or `make chaos`) to assert the liveness contract of the fault
// layer: no matter which mixture of panics, errors, and delays is
// injected into a graph, the executor quiesces, waiters unblock, and the
// topology reports a coherent aggregated error.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every error-mode fault, so tests
// can assert an observed failure is chaos-made with errors.Is.
var ErrInjected = errors.New("chaos: injected failure")

// Mode classifies a planned fault.
type Mode uint8

const (
	// None leaves the wrapped body untouched.
	None Mode = iota
	// Fail makes the wrapped body return an error wrapping ErrInjected.
	Fail
	// Panic makes the wrapped body panic.
	Panic
	// Delay sleeps a bounded random duration before running the body.
	Delay
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Config sets the per-task fault probabilities. The probabilities are
// tried in order panic, fail, delay against one uniform draw, so their
// sum must not exceed 1.
type Config struct {
	Seed   int64
	PPanic float64
	PFail  float64
	PDelay float64
	// MaxDelay bounds Delay faults; 0 means 1ms.
	MaxDelay time.Duration
	// Sleep, when non-nil, replaces time.Sleep for Delay faults. Under
	// the deterministic simulation executor (internal/sim) it is wired to
	// SimExecutor.AdvanceBy so injected delays advance the virtual clock
	// instead of costing wall time.
	Sleep func(time.Duration)
}

// Fault is one planned injection, recorded at Wrap time.
type Fault struct {
	Task  string
	Mode  Mode
	Delay time.Duration // set for Delay faults
}

// Injector plans and applies faults. Safe for concurrent use by the
// wrapped bodies; Wrap itself draws from the shared PRNG under a lock, so
// call it from one goroutine (graph construction) for a reproducible
// plan.
type Injector struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	planned   []Fault
	triggered []Fault
}

// New creates an Injector from cfg, validating the probability mass.
func New(cfg Config) *Injector {
	if cfg.PPanic < 0 || cfg.PFail < 0 || cfg.PDelay < 0 ||
		cfg.PPanic+cfg.PFail+cfg.PDelay > 1 {
		panic("chaos: fault probabilities must be non-negative and sum to <= 1")
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// plan draws the fault decision for one task.
func (in *Injector) plan(name string) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := Fault{Task: name}
	r := in.rng.Float64()
	switch {
	case r < in.cfg.PPanic:
		f.Mode = Panic
	case r < in.cfg.PPanic+in.cfg.PFail:
		f.Mode = Fail
	case r < in.cfg.PPanic+in.cfg.PFail+in.cfg.PDelay:
		f.Mode = Delay
		f.Delay = time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay)) + 1)
	}
	if f.Mode != None {
		in.planned = append(in.planned, f)
	}
	return f
}

// record notes that a planned fault actually fired (fail-fast
// cancellation can skip wrapped bodies, so the triggered list may be a
// subset of the plan).
func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.triggered = append(in.triggered, f)
	in.mu.Unlock()
}

// apply runs f's effect around body. Returns the body's verdict.
func (in *Injector) apply(f Fault, body func() error) error {
	switch f.Mode {
	case Panic:
		in.record(f)
		panic(fmt.Sprintf("chaos: injected panic in task %q", f.Task))
	case Fail:
		in.record(f)
		return fmt.Errorf("chaos: task %q: %w", f.Task, ErrInjected)
	case Delay:
		in.record(f)
		if in.cfg.Sleep != nil {
			in.cfg.Sleep(f.Delay)
		} else {
			time.Sleep(f.Delay)
		}
	}
	if body == nil {
		return nil
	}
	return body()
}

// Wrap plans a fault for the named task and returns an error-returning
// body (for Taskflow.EmplaceErr) that applies it around fn. fn may be
// nil.
func (in *Injector) Wrap(name string, fn func()) func() error {
	f := in.plan(name)
	return func() error {
		return in.apply(f, func() error {
			if fn != nil {
				fn()
			}
			return nil
		})
	}
}

// Planned returns a copy of the fault plan in Wrap order.
func (in *Injector) Planned() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.planned...)
}

// Triggered returns a copy of the faults that actually fired.
func (in *Injector) Triggered() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.triggered...)
}

// CountPlanned returns how many faults of mode m are in the plan.
func (in *Injector) CountPlanned(m Mode) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.planned {
		if f.Mode == m {
			n++
		}
	}
	return n
}
