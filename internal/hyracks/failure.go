package hyracks

import "fmt"

// TaskPanic is the error a job fails with when one of its operators
// panics. The task's goroutine recovers the panic, so the process keeps
// serving; a resend would panic again, so it is not retriable.
type TaskPanic struct {
	Op        string // operator whose task panicked
	Partition int
	Value     any    // what the operator panicked with
	Stack     []byte // the panicking goroutine's stack
}

func (e *TaskPanic) Error() string {
	return fmt.Sprintf("hyracks: %s[%d] panicked: %v", e.Op, e.Partition, e.Value)
}
