package engine

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered inside the shard executor, converted into
// an ordinary task error. User-defined operators (custom Transformers,
// Computers, Updaters) run inside pool-worker goroutines; without recovery a
// panic there kills the whole process regardless of what the driver does.
// With it, the panic surfaces as this error from Step/Run — failing the one
// job while the process, the pool, and every other job keep going.
type PanicError struct {
	// Op locates the panic (e.g. "task 3").
	Op string
	// Value is what panic() received.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic in %s: %v\n%s", e.Op, e.Value, e.Stack)
}

// safeCall runs fn(i), converting a panic into a *PanicError. It is the
// isolation boundary between user-defined operator code and the executor:
// runTasks routes every task through it, on its serial loop and on every pool
// worker alike.
func safeCall(fn func(task int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: fmt.Sprintf("task %d", i), Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
