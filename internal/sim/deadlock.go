package sim

import "fmt"

// DeadlockError is the error a cycle-level core returns when it goes more
// than its deadlock window without progress, which indicates a malformed
// trace or a model bug. Its fields let a caller, such as a fuzzer triaging
// its findings, tell deadlocks apart without parsing the message.
type DeadlockError struct {
	Core         string // the core that stopped: "DVA" (which also runs BYP) or "OOO"
	Cycle        int64  // the cycle the deadlock was declared at
	LastProgress int64  // the last cycle in which a unit made progress
	Window       int64  // the progress-free cycles tolerated (Config.DeadlockWindow)
	State        string // the core's one-line summary of its state at Cycle
}

// Error returns the message the cores have always printed: "deadlock at
// cycle C: State" for the DVA and "deadlock at cycle C (State)" for the
// OOO core.
func (e *DeadlockError) Error() string {
	if e.Core == "OOO" {
		return fmt.Sprintf("deadlock at cycle %d (%s)", e.Cycle, e.State)
	}
	return fmt.Sprintf("deadlock at cycle %d: %s", e.Cycle, e.State)
}
