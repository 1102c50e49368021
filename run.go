package whilepar

import (
	"context"
	"fmt"

	"whilepar/internal/cancel"
	"whilepar/internal/core"
)

// Typed sentinel errors returned (wrapped) by Options.Validate and the
// entry points; test with errors.Is.
var (
	// ErrBadProcs: Options.Procs is negative (0 defaults to
	// runtime.GOMAXPROCS(0); explicit 1 is sequential).
	ErrBadProcs = core.ErrBadProcs
	// ErrBadSchedule: Options.Schedule is not Dynamic, Static or Guided.
	ErrBadSchedule = core.ErrBadSchedule
	// ErrBadInductionMethod: Options.InductionMethod is out of range.
	ErrBadInductionMethod = core.ErrBadInductionMethod
	// ErrBadListMethod: Options.ListMethod is out of range.
	ErrBadListMethod = core.ErrBadListMethod
	// ErrSparseStampThreshold: SparseUndo combined with a stamp
	// threshold (the sparse log must record every store).
	ErrSparseStampThreshold = core.ErrSparseStampThreshold
	// ErrRunTwiceUnanalyzable: StrategyRunTwice with Tested/Privatized
	// arrays.
	ErrRunTwiceUnanalyzable = core.ErrRunTwiceUnanalyzable
	// ErrMissingBound: the transformation needs Loop.Max.
	ErrMissingBound = core.ErrMissingBound
	// ErrBadDispatcher: dispatcher type does not fit the entry point.
	ErrBadDispatcher = core.ErrBadDispatcher
	// ErrUnsupportedLoop: Run was handed a value it cannot classify.
	ErrUnsupportedLoop = core.ErrUnsupportedLoop
	// ErrRecoveryUnsupported: StrategyRecover combined with SparseUndo
	// or Privatized arrays (partial commit needs the dense stamped
	// path).
	ErrRecoveryUnsupported = core.ErrRecoveryUnsupported
	// ErrPipelineUnsupported: StrategyPipeline combined with SparseUndo
	// or Privatized arrays, or a loop with no strip-mineable
	// (closed-form) dispatcher.
	ErrPipelineUnsupported = core.ErrPipelineUnsupported
	// ErrBadDeadline: Options.Deadline is negative (0 means none).
	ErrBadDeadline = core.ErrBadDeadline
	// ErrBadStrategy: Options.Strategy is not a known Strategy constant.
	ErrBadStrategy = core.ErrBadStrategy
	// ErrBadValidation: Options.Validation is out of range, or a
	// signature/trusted tier was pinned alongside a mode with no tiered
	// strip path (SparseUndo, Privatized, StrategyRunTwice,
	// StrategyPipeline).
	ErrBadValidation = core.ErrBadValidation
	// ErrCanceled: the execution's context was canceled; the Report
	// carries the committed prefix.  Matches context.Canceled via
	// errors.Is as well.
	ErrCanceled = cancel.ErrCanceled
	// ErrDeadline: the execution's context deadline (or
	// Options.Deadline) expired; the Report carries the committed
	// prefix.  Matches context.DeadlineExceeded via errors.Is as well.
	ErrDeadline = cancel.ErrDeadline
	// ErrWorkerPanic: a loop body panicked on a worker; the panic was
	// contained, siblings were stopped, and speculative state was
	// restored.  Use AsPanicError for the iteration, VP and stack.
	ErrWorkerPanic = cancel.ErrWorkerPanic
)

// PanicError carries a contained worker panic: the iteration index and
// virtual processor it happened on, the recovered value, and the
// worker's stack.  Errors returned by the entry points match
// ErrWorkerPanic via errors.Is; AsPanicError extracts the detail.
type PanicError = cancel.PanicError

// AsPanicError extracts the contained-panic detail from an error
// returned by any entry point (errors.As under the hood).
func AsPanicError(err error) (*PanicError, bool) { return cancel.AsPanic(err) }

// ListLoop packages a linked-list WHILE loop (the general-recurrence
// case) for the unified Run front door: the list head, the remainder
// body, and the loop's taxonomy cell.
type ListLoop struct {
	Head  *Node
	Body  ListBody
	Class Class
}

// Run is the unified front door: it classifies the loop against the
// Table 1 taxonomy and dispatches to the matching entry point, so
// callers no longer hand-pick among RunInduction / RunAssociative /
// RunGeneralNumeric / RunList.
//
// Accepted loop values:
//
//   - *IntLoop — an induction dispatcher; runs via RunInduction;
//   - *FloatLoop — a numeric recurrence: an Affine dispatcher (or a
//     Class marked AssociativeRecurrence) runs via RunAssociative, any
//     other dispatcher via RunGeneralNumeric (which still attempts
//     run-time affine recognition before falling back to the naive
//     distribution);
//   - ListLoop / *ListLoop — a linked-list traversal; runs via RunList
//     with the method selected by Options.ListMethod.
//
// Anything else fails with ErrUnsupportedLoop.  Options are validated
// (Options.Validate) exactly once, before any goroutine starts.
//
// Run is RunContext under context.Background(); Options.Deadline still
// applies.
func Run(loop any, opt Options) (Report, error) {
	return RunContext(context.Background(), loop, opt)
}

// RunContext is the unified front door under a context: the execution
// observes ctx (and Options.Deadline) cooperatively at iteration, chunk
// and strip boundaries.  Once ctx is done the engines stop issuing
// work, squash or restore uncommitted speculative state, and return a
// Report whose Valid is the committed prefix — the iterations that
// verifiably match the sequential loop — together with ErrCanceled or
// ErrDeadline.  A panicking loop body is contained on its worker and
// surfaced as ErrWorkerPanic (with iteration, VP and stack via
// AsPanicError); Options.FallbackSequential instead completes such a
// loop sequentially when a speculative fallback exists.
func RunContext(ctx context.Context, loop any, opt Options) (Report, error) {
	switch l := loop.(type) {
	case *IntLoop:
		return core.RunInductionCtx(ctx, l, opt)
	case *FloatLoop:
		if _, ok := l.Disp.(Affine); ok {
			return core.RunAssociativeCtx(ctx, l, opt)
		}
		// Non-affine dispatcher types (even on loops classed as
		// associative) go through RunGeneralNumeric, whose run-time
		// recognition promotes them to the parallel-prefix path when the
		// recurrence really is affine.
		return core.RunGeneralNumericCtx(ctx, l, opt)
	case ListLoop:
		return core.RunListCtx(ctx, l.Head, l.Body, l.Class, opt)
	case *ListLoop:
		return core.RunListCtx(ctx, l.Head, l.Body, l.Class, opt)
	}
	return Report{}, fmt.Errorf("%w: %T (want *IntLoop, *FloatLoop or ListLoop)", ErrUnsupportedLoop, loop)
}
