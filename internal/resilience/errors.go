package resilience

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/scenario"
)

// CellPanic reports that a sweep cell panicked. The recover() at the
// cell boundary converts the panic into this error so one poisoned cell
// quarantines instead of tearing down the whole sweep; the stack is the
// panicking goroutine's, captured before any other cell ran on it.
type CellPanic struct {
	Index int              // cell index within the sweep
	Key   string           // spec hash, when the sweep was journaled
	Spec  *scenario.Config // the cell's config, when known
	Value any              // the recovered panic value
	Stack string           // captured stack of the panicking goroutine
	Repro string           // path of the auto-emitted reproducer, when one was written
}

func (e *CellPanic) Error() string {
	return fmt.Sprintf("cell %d panicked: %v", e.Index, e.Value)
}

// CellTimeout reports that a cell exceeded its watchdog deadline. The
// watchdog first interrupts the cell cooperatively (the simulator stops
// at its next event boundary); only if the cell ignores the interrupt
// past the grace period is its goroutine abandoned.
type CellTimeout struct {
	Index    int              // cell index within the sweep
	Key      string           // spec hash, when the sweep was journaled
	Spec     *scenario.Config // the cell's config, when known
	Deadline time.Duration    // the scaled wall-clock budget that expired
	LastBeat time.Duration    // age of the worker's last Progress heartbeat when the watchdog fired

	// Abandoned means the cell never reached an event boundary within the
	// grace period and its goroutine was leaked: it may still be running.
	Abandoned bool
}

func (e *CellTimeout) Error() string {
	state := "interrupted"
	if e.Abandoned {
		state = "abandoned (ignored interrupt)"
	}
	return fmt.Sprintf("cell %d exceeded %v watchdog deadline, %s (last heartbeat %v ago)",
		e.Index, e.Deadline, state, e.LastBeat.Round(time.Millisecond))
}

// CellDeadline scales a base per-cell wall-clock budget by the cell's
// size, so one -cell-timeout flag covers a sweep mixing 20-node smoke
// cells and 100-node, 30-flow paper cells: base × (1 + nodes/25 +
// flows/10), integer division. A non-positive base disables the
// watchdog (returns 0).
func CellDeadline(base time.Duration, nodes, flows int) time.Duration {
	if base <= 0 {
		return 0
	}
	scale := 1 + nodes/25 + flows/10
	return base * time.Duration(scale)
}
