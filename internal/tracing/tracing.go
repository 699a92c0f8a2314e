// Package tracing renders execution timelines in the Chrome trace-event
// JSON format (chrome://tracing, Perfetto), the role TFProf plays for
// Cpp-Taskflow: visualizing where every worker spends its time without
// modifying user code.
//
// The executor records the events itself, lock-free, one ring per worker
// (executor.StartTrace/StopTrace, FlightSnapshot). WriteTrace (chrome.go)
// renders such an executor.Trace — named spans, scheduler instants and
// dependency flow arrows.
package tracing

import (
	"fmt"

	"gotaskflow/internal/executor"
)

// spanName returns the display name for a task's trace span: the task's
// own name, else the positional fallback used by the DOT dumps (p + hex
// emplacement index), else "task" for anonymous one-shots.
func spanName(m executor.TaskMeta) string {
	if m.Name != "" {
		return m.Name
	}
	if m.ID != 0 {
		return fmt.Sprintf("p%#x", m.Idx)
	}
	return "task"
}
