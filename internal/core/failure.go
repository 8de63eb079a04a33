package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// FailureClass is the retry-worthiness of a sort failure: every layer —
// scheduler, service, CLI — asks the same question ("is this worth
// retrying?") and the taxonomy answers it once, by classifying the
// error chain instead of string-matching messages.
type FailureClass int

const (
	// FailUnknown marks errors outside the taxonomy: context
	// cancellation, engine shutdown, programming errors. Not retried,
	// not counted against the service's circuit breaker.
	FailUnknown FailureClass = iota
	// FailTransient marks failures a retry can plausibly clear: an I/O
	// deadline, an injected failpoint, a recovered stage panic. The
	// scheduler's RetryPolicy re-runs these.
	FailTransient
	// FailFatal marks a dead mesh: a transport link exhausted its dial
	// budget. Retrying on the same engine will fail the same way; the
	// service's circuit breaker counts these and falls back to
	// single-node execution.
	FailFatal
	// FailDataDependent marks failures the input itself causes (an
	// entry larger than the frame limit, a malformed dataset shape).
	// Retrying the same bytes reproduces them, so nobody should.
	FailDataDependent
)

// String names the class as it appears in metrics labels and logs.
func (c FailureClass) String() string {
	switch c {
	case FailTransient:
		return "transient"
	case FailFatal:
		return "fatal"
	case FailDataDependent:
		return "data-dependent"
	default:
		return "unknown"
	}
}

// Failure wraps the root cause of a failed sort with its class, the
// node it surfaced on and the scheduler stage it surfaced in. sortOne
// returns one for every node failure, so errors.As(err, *Failure) works
// from any layer above the engine; context errors pass through bare so
// errors.Is(err, context.DeadlineExceeded) keeps working too.
type Failure struct {
	Class FailureClass
	Stage SchedStage
	Node  int
	Err   error
}

func (f *Failure) Error() string {
	return fmt.Sprintf("core: node %d failed in %v (%v): %v", f.Node, f.Stage, f.Class, f.Err)
}

func (f *Failure) Unwrap() error { return f.Err }

// Classify walks err's chain and returns its failure class. Unwrapped
// and nil errors are FailUnknown.
func Classify(err error) FailureClass {
	if err == nil {
		return FailUnknown
	}
	var f *Failure
	if errors.As(err, &f) {
		return f.Class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return FailUnknown
	}
	var le *transport.LinkError
	if errors.As(err, &le) {
		return FailFatal
	}
	var de *transport.DeadlineError
	if errors.As(err, &de) {
		return FailTransient
	}
	if errors.Is(err, failpoint.ErrInjected) {
		return FailTransient
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return FailTransient
	}
	if errors.Is(err, comm.ErrFrameTooLarge) || errors.Is(err, ErrShareTooLarge) {
		return FailDataDependent
	}
	if errors.Is(err, spill.ErrCorrupt) {
		// A spill run file failed its checksum or structural validation:
		// the bytes on disk are wrong and re-reading them reproduces the
		// failure. (A retry that re-spills from memory may clear it, but
		// the taxonomy is about the error as observed — same bytes, same
		// failure — and silent rereads must never mask corruption.)
		return FailDataDependent
	}
	return FailUnknown
}

// Failpoint sites planted at the engine's stage boundaries: every node
// of a sort passes each site once per run, so a site:error:1 schedule
// fails exactly one node of the next sort and a count>p schedule fails
// them all. The merge site fires after the exchange completes, which is
// the hardest error exit: the completed exchange must unwind without
// leaking slabs or spill files (see exchangeSink.discard). The send site
// is different: every engine message passes it on its way to the
// transport, so a delay there perturbs message timing on either
// transport, and an error fails one send mid-stage.
const (
	fpLocalSort = "core/local-sort"
	fpSplitters = "core/splitters"
	fpExchange  = "core/exchange"
	fpMerge     = "core/merge"
	fpSend      = "core/send"
)

// errSortAborted is the secondary error nodes observe when sortOne tears
// a sort down because a peer node already failed: their blocked receives
// fail with this instead of a misleading "network closed". It is never
// the root cause — sortOne reports the peer's error, not this one.
var errSortAborted = errors.New("core: sort aborted after a peer node failed")

// panicError is a recovered stage panic (an injected failpoint panic or
// a real bug) converted into an error so one poisoned stage fails the
// job, not the process. It classifies as Transient: an injected panic
// is transient by construction, and a data-dependent crash will simply
// fail again and exhaust its retry budget.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("core: recovered panic: %v", p.val)
}

// Stack returns the goroutine stack captured at recovery, for logs.
func (p *panicError) Stack() string { return string(p.stack) }

// recoverPanic converts a recover() value into a *panicError. An
// injected failpoint panic keeps its error chain (so it still classifies
// via ErrInjected); anything else captures the stack.
func recoverPanic(r any) error {
	if fe, ok := r.(*failpoint.Error); ok {
		return fmt.Errorf("core: recovered panic: %w", fe)
	}
	return &panicError{val: r, stack: debug.Stack()}
}

// classPriority ranks classes for root-cause selection when several
// nodes fail at once: the most actionable class wins (a Fatal link loss
// explains the Transient "network closed" noise around it, never the
// other way).
func classPriority(c FailureClass) int {
	switch c {
	case FailFatal:
		return 3
	case FailDataDependent:
		return 2
	case FailTransient:
		return 1
	default:
		return 0
	}
}
