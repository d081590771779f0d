// Package robust carries the failure-containment vocabulary of the mining
// stack: typed errors for worker panics and cooperative cancellation, and
// the versioned checkpoint format behind ccpd.Resume. The package sits below
// internal/sched (which converts recovered panics into WorkerPanicError) and
// below internal/ccpd (which annotates them with phase context and drives
// checkpointing), so it must not import either.
//
// The design goal is the memory- and failure-constrained regime the
// distributed-Apriori literature reports as dominant in real deployments: a
// panic in one worker goroutine must surface as an error from Mine instead
// of killing the process, a long run must be cancelable at chunk
// granularity, and a run killed between iterations must be resumable
// bit-identically from its last completed iteration.
package robust

import (
	"context"
	"fmt"
)

// WorkerPanicError reports a panic recovered inside a worker-pool goroutine.
// The scheduler fills Worker, Chunk (when the panicking worker had announced
// a counting chunk via sched.Pool.NoteChunk), Value and Stack; the mining
// layer annotates Phase and K before returning the error from Mine. The
// process stays alive: the pool drains the barrier normally and remains
// usable.
type WorkerPanicError struct {
	// Worker is the pool worker ("processor") index that panicked.
	Worker int
	// Phase is the mining phase label ("f1", "gen", "build", "count",
	// "reduce"), or "" when the panic happened outside a labelled phase.
	Phase string
	// K is the iteration the panic interrupted (0 if unknown).
	K int
	// Chunk is the counting chunk being processed, or -1 when the panic was
	// not chunk-scoped.
	Chunk int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace at recovery.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	loc := fmt.Sprintf("worker %d", e.Worker)
	if e.Phase != "" {
		loc += fmt.Sprintf(" phase=%s k=%d", e.Phase, e.K)
	}
	if e.Chunk >= 0 {
		loc += fmt.Sprintf(" chunk=%d", e.Chunk)
	}
	return fmt.Sprintf("robust: panic in %s: %v", loc, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so errors.Is/As
// reach through (e.g. a worker panicking with context.Canceled).
func (e *WorkerPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// CanceledError reports that a mining run stopped cooperatively because its
// context was canceled (or its deadline passed). The run's partial result —
// every iteration completed before the cancellation point — is returned
// alongside the error by the engine's Mine, and a checkpoint-enabled run can Resume
// from the last completed iteration.
type CanceledError struct {
	// Phase is the phase that observed the cancellation.
	Phase string
	// K is the iteration that was interrupted.
	K int
	// Err is the context's error (context.Canceled or DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("robust: mining canceled during phase=%s k=%d: %v", e.Phase, e.K, e.Err)
}

// Unwrap lets errors.Is(err, context.Canceled) see through the wrapper.
func (e *CanceledError) Unwrap() error { return e.Err }

// Canceled wraps a context error with phase/iteration attribution. It
// returns nil when ctx is still live, so callers can write
// `if err := robust.Canceled(ctx, phase, k); err != nil { ... }`.
func Canceled(ctx context.Context, phase string, k int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &CanceledError{Phase: phase, K: k, Err: err}
	}
	return nil
}
