package core

import (
	"errors"
	"fmt"

	"whilepar/internal/induction"
	"whilepar/internal/sched"
)

// Typed sentinel errors for option and loop validation.  Every entry
// point validates its Options before starting any goroutine and wraps
// the matching sentinel, so callers can branch with errors.Is instead
// of matching message strings.
var (
	// ErrBadProcs: Options.Procs is negative.  Zero means "use
	// runtime.GOMAXPROCS(0)"; explicit 1 means sequential.
	ErrBadProcs = errors.New("core: invalid Procs")
	// ErrBadSchedule: Options.Schedule is not a known sched constant.
	ErrBadSchedule = errors.New("core: invalid Schedule")
	// ErrBadInductionMethod: Options.InductionMethod is out of range.
	ErrBadInductionMethod = errors.New("core: invalid InductionMethod")
	// ErrBadListMethod: Options.ListMethod is out of range.
	ErrBadListMethod = errors.New("core: invalid ListMethod")
	// ErrSparseStampThreshold: SparseUndo was combined with a
	// statistics-enhanced stamp threshold; the sparse log must record
	// every store, so the two are incompatible.
	ErrSparseStampThreshold = errors.New("core: SparseUndo is incompatible with a stamp threshold")
	// ErrRunTwiceUnanalyzable: RunTwice requires statically known
	// dependences (no Tested or Privatized arrays).
	ErrRunTwiceUnanalyzable = errors.New("core: RunTwice requires statically known dependences")
	// ErrRecoveryUnsupported: partial-commit recovery needs the dense
	// stamped undo path — it cannot bound a suffix rewind from the
	// sparse log, and privatized copies have no per-location stamps.
	ErrRecoveryUnsupported = errors.New("core: Recovery requires dense stamps (no SparseUndo, no Privatized)")
	// ErrPipelineUnsupported: pipelined strip speculation overlaps one
	// strip's execution with the previous strip's PD test, squashing
	// the in-flight strip through its generation's dense checkpoint
	// when the test fails — so it needs the dense stamped path (no
	// SparseUndo, no Privatized copies a squash could not erase), is
	// meaningless under RunTwice (which has no PD phase), and requires
	// a strip-mineable iteration space (a closed-form dispatcher, not a
	// list traversal).
	ErrPipelineUnsupported = errors.New("core: Pipeline requires dense stamps and a strip-mineable loop")
	// ErrMissingBound: the loop needs Max (an iteration-space bound) for
	// the chosen transformation.
	ErrMissingBound = errors.New("core: loop needs Max (or strip-mine externally)")
	// ErrBadDispatcher: the dispatcher's type does not fit the chosen
	// entry point (e.g. the associative path needs an Affine).
	ErrBadDispatcher = errors.New("core: dispatcher does not fit the chosen method")
	// ErrUnsupportedLoop: the unified front door was handed a loop value
	// it cannot classify.
	ErrUnsupportedLoop = errors.New("core: unsupported loop type")
	// ErrBadDeadline: Options.Deadline is negative (0 means no
	// deadline; positive values bound the execution's wall-clock time).
	ErrBadDeadline = errors.New("core: invalid Deadline")
	// ErrBadStrategy: Options.Strategy is not a known Strategy
	// constant.
	ErrBadStrategy = errors.New("core: invalid Strategy")
	// ErrBadValidation: Options.Validation is out of range, or a
	// signature/trusted tier was pinned alongside a mode that has no
	// tiered strip path to honour it — SparseUndo and Privatized copies
	// need the element-wise machinery, StrategyRunTwice has no
	// validation phase at all, and the pipelined engine only speaks the
	// element-wise protocol.
	ErrBadValidation = errors.New("core: invalid Validation")
)

// Validate rejects malformed Options before any goroutine is started.
// Each failure wraps one of the typed sentinels above, so callers can
// test with errors.Is(err, core.ErrBadSchedule) etc.  All entry points
// call it; callers constructing Options programmatically may call it
// early to fail fast.
func (o Options) Validate() error {
	if err := o.validateStrategy(); err != nil {
		return err
	}
	// The remaining rules see the options as the orchestrator will run
	// them, with the Strategy's implied flags folded in.
	o = o.resolved()
	if o.Procs < 0 {
		return fmt.Errorf("%w: %d (0 defaults to GOMAXPROCS, 1 is sequential)", ErrBadProcs, o.Procs)
	}
	if err := sched.Validate(o.Schedule); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSchedule, err)
	}
	switch o.InductionMethod {
	case induction.Induction1, induction.Induction2:
	default:
		return fmt.Errorf("%w: %d", ErrBadInductionMethod, int(o.InductionMethod))
	}
	switch o.ListMethod {
	case AutoList, General1, General2, General3, DoacrossList:
	default:
		return fmt.Errorf("%w: %d", ErrBadListMethod, int(o.ListMethod))
	}
	if o.SparseUndo && o.Stats != nil && o.Stats.StampThreshold() > 0 {
		return ErrSparseStampThreshold
	}
	if o.runTwice && (len(o.Tested) > 0 || len(o.Privatized) > 0) {
		return ErrRunTwiceUnanalyzable
	}
	if o.Deadline < 0 {
		return fmt.Errorf("%w: %v (0 means none)", ErrBadDeadline, o.Deadline)
	}
	if o.recovery && (o.SparseUndo || len(o.Privatized) > 0) {
		return ErrRecoveryUnsupported
	}
	if o.pipeline {
		if o.SparseUndo {
			return fmt.Errorf("%w: SparseUndo", ErrPipelineUnsupported)
		}
		if len(o.Privatized) > 0 {
			return fmt.Errorf("%w: Privatized arrays", ErrPipelineUnsupported)
		}
	}
	switch o.Validation {
	case ValidationAuto, ValidationFull, ValidationSignature, ValidationTrusted:
	default:
		return fmt.Errorf("%w: %d", ErrBadValidation, int(o.Validation))
	}
	if o.Validation == ValidationSignature || o.Validation == ValidationTrusted {
		switch {
		case o.SparseUndo:
			return fmt.Errorf("%w: %s needs dense stamps, not SparseUndo", ErrBadValidation, o.Validation)
		case len(o.Privatized) > 0:
			return fmt.Errorf("%w: %s cannot cover Privatized copies", ErrBadValidation, o.Validation)
		case o.runTwice:
			return fmt.Errorf("%w: StrategyRunTwice has no validation phase to tier", ErrBadValidation)
		case o.pipeline:
			return fmt.Errorf("%w: the pipelined engine is element-wise only", ErrBadValidation)
		}
	}
	return nil
}
