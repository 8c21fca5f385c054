package eval

import (
	"fmt"

	"repro/internal/obs"
)

// panicsRecoveredCtr counts recovered backend panics process-wide.
var panicsRecoveredCtr = obs.DefaultRegistry.Counter("eval.panics_recovered")

// TaskError is the typed failure of one evaluation task: it carries the
// request that failed and whether the failure was a recovered panic.
// Engines wrap every backend failure in a TaskError, so batch callers
// can always recover the failing design point from the error alone;
// errors.Is/As reach the underlying cause through Unwrap.
type TaskError struct {
	Req      Request
	Panicked bool
	Err      error
}

// Error implements error.
func (e *TaskError) Error() string {
	kind := "evaluating"
	if e.Panicked {
		kind = "panic evaluating"
	}
	return fmt.Sprintf("eval: %s %s on %v: %v", kind, e.Req.Bench, e.Req.Config, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *TaskError) Unwrap() error { return e.Err }

// PanicError is the error a recovered worker panic is converted into.
// The batch it ran in fails like it would on an error return, instead
// of the panic crashing the process.
type PanicError struct {
	Value any
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }
