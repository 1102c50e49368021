package speculate

import (
	"context"
	"fmt"

	"whilepar/internal/cancel"
	"whilepar/internal/mem"
)

// StripReport describes a strip-mined speculative execution.
type StripReport struct {
	// Valid is the number of valid iterations from the run's start.
	Valid int
	// Strips executed; SeqStrips of them fell back to sequential
	// re-execution after a failed PD test or exception.
	Strips, SeqStrips int
	// Undone counts locations restored across all strips (overshoot
	// and recovery suffix undos).
	Undone int
	// PrefixCommitted counts iterations salvaged from failed strips by
	// partial commits (0 when Spec.Recovery is off).
	PrefixCommitted int
	// Overlapped counts strips whose execution ran concurrently with
	// the previous strip's PD test (pipelined strips only).
	Overlapped int
	// Squashed counts overlapped strips whose speculative execution was
	// discarded because the previous strip failed validation
	// (pipelined strips only).
	Squashed int
	// Done reports whether the loop terminated within the bound (vs
	// exhausting Total iterations).
	Done bool
	// Tier is the validation tier the run was granted at entry (after
	// engine clamping); TierDemoted reports a mid-run fall back to
	// TierFull after a real violation or audit failure.
	Tier        Tier
	TierDemoted bool
	// SigFalsePositives counts Tier-1 flagged strips whose Tier-0
	// re-run found no real violation (hash aliasing — one strip
	// re-execution each, never a wrong commit).
	SigFalsePositives int
	// AuditRuns counts Tier-2 strips re-armed under the full shadow
	// machinery; AuditFailures the ones whose PD test failed.
	AuditRuns, AuditFailures int
}

// StripPar executes one strip [lo, hi) in parallel under the given
// tracker and returns the number of valid iterations *within the strip*
// and whether the termination condition was met in it.  An error is an
// exception (triggers the strip's sequential fallback).  tr is nil when
// the engine runs the strip shadow-free (TierTrusted's direct strips):
// the body must then access the arrays directly — loopir.Iter already
// does exactly that for a nil Tracker.
type StripPar func(tr mem.Tracker, lo, hi int) (valid int, done bool, err error)

// StripSeq re-executes one strip sequentially (after a failed strip) and
// returns the same.
type StripSeq func(lo, hi int) (valid int, done bool)

// StripController is the policy that steers RunStrips.  It is defined
// structurally here (primitive-typed methods only) so the auto-tuner
// can implement it without this package importing it — the same
// inversion that keeps the cost model out of the engines.
//
// The engine consults SwitchPipeline once on entry, then calls
// NextStrip before launching each strip, Observe after each strip's
// verdict, and consults the two Switch methods again at strip
// boundaries.  Both switches are monotone within a run: once either
// returns true it must keep returning true.
type StripController interface {
	// NextStrip returns the strip size to use for the strip starting
	// at iteration done of total.  Values are clamped to [1, total-done].
	NextStrip(done, total int) int
	// Observe reports the strip [lo, hi): valid iterations within it
	// and whether it committed cleanly (PD passed, no exception).
	Observe(lo, valid, hi int, committed bool)
	// SwitchPipeline asks to hand the remainder to the pipelined
	// engine (ignored while the speculation mode cannot be squashed —
	// sparse undo or privatized copies — or validates above TierFull).
	SwitchPipeline() bool
	// SwitchSequential asks to finish the remainder sequentially.
	SwitchSequential() bool
}

// Strips is the fixed-size strip policy: every strip holds Size
// iterations (clamped to at least 1), and Pipeline asks for the
// double-buffered pipelined engine from the first strip on.  It never
// retunes and never demotes to sequential.
type Strips struct {
	Size     int
	Pipeline bool
}

// NextStrip returns the fixed strip size.
func (s Strips) NextStrip(done, total int) int { return s.Size }

// Observe ignores strip outcomes: the policy is fixed.
func (Strips) Observe(lo, valid, hi int, committed bool) {}

// SwitchPipeline reports the fixed pipelining request.
func (s Strips) SwitchPipeline() bool { return s.Pipeline }

// SwitchSequential never demotes.
func (Strips) SwitchSequential() bool { return false }

// RunStrips is the strip-mined speculation protocol of Sections 4, 5.1
// and 8.1: the iteration space [start, total) is executed strip by
// strip; each strip is checkpointed, run speculatively under
// time-stamps and fresh PD-test shadow structures, validated, and then
// either committed (with its overshoot undone) or restored and
// re-executed sequentially.
//
// Two properties the paper wants from this shape:
//
//   - memory: time-stamps and shadow marks exist only for the current
//     strip, bounding the overhead memory by O(strip * writes/iter);
//   - safety: if the termination condition depends on a variable with
//     unknown dependences, an un-strip-mined speculative run could
//     mis-identify the last valid iteration or never terminate; here
//     every strip's dependences are tested before its values are
//     trusted, and a failed strip costs one strip's re-execution, not
//     the whole loop's.
//
// The policy ctl sizes each strip and may switch engines at strip
// boundaries: promote the remainder to the pipelined engine, which
// hides each strip's PD test behind the next strip's execution, or
// demote it to sequential completion.  A policy that asks for the
// pipeline on entry (Strips{Pipeline: true}, or a Tuner whose plan is
// pipelined) goes straight to the pipelined engine.  Iterations below
// start are treated as already committed (an orchestrator's sequential
// probe); stamps and PD marks carry global indices throughout, and the
// report's Valid counts iterations from start.
//
// Cancellation and panics: the strip boundary is the cancellation
// point.  Once ctx is done no further strip starts, and the report
// carries the valid count of the strips already committed (the
// committed prefix) together with ErrCanceled/ErrDeadline.  When the
// strip runner itself surfaces a cancellation — or a contained panic
// with Spec.PanicFallback unset — the current strip is rewound via its
// checkpoint before the error unwinds, so the shared arrays hold
// exactly the committed-prefix state; in pipelined mode an overlapped
// strip that surfaces it while its predecessor commits is squashed the
// same way and counted in Squashed.  Cancellation never falls back to
// sequential re-execution.
func RunStrips(ctx context.Context, spec Spec, start, total int, ctl StripController, par StripPar, seq StripSeq) (StripReport, error) {
	if par == nil || seq == nil {
		return StripReport{}, fmt.Errorf("speculate: both strip runners are required")
	}
	if ctl == nil {
		return StripReport{}, fmt.Errorf("speculate: RunStrips requires a StripController")
	}
	if start < 0 {
		start = 0
	}
	// The pipeline double-buffers checkpoints; modes a squash cannot
	// erase stay on the stripped path regardless of what the policy
	// asks — and so do runs granted a tier above TierFull, because the
	// pipelined engine only speaks the element-wise protocol.
	pipelineOK := spec.dense() && spec.tier() == TierFull
	if pipelineOK && ctl.SwitchPipeline() {
		return runStrippedPipelinedFrom(ctx, spec, start, total, nextStrip(ctl, start, total), par, seq)
	}
	procs := spec.Procs
	if procs < 1 {
		procs = 1
	}

	// One memory, one shadow set (and, above TierFull, one signature
	// set) serve every strip: the per-strip reset is an epoch bump plus
	// a shadow Reset, so the bounded-memory property still holds — live
	// stamps and marks cover only the current strip — without paying a
	// fresh allocation and O(procs x n) clear per strip.  Their buffers
	// go back to the shared arena when the engine returns.  The strip
	// verdict itself — run, validate at the spec's tier, commit or
	// recover — lives in the tier runtime (tier.go); this loop keeps
	// only the schedule.
	var rep StripReport
	rt := newTierRuntime(spec, procs, start, total, &rep)
	defer rt.release()

	for lo := start; lo < total; {
		if cerr := cancel.Err(ctx); cerr != nil {
			// Strips committed so far are final; nothing of the next
			// one has started, so there is nothing to rewind.
			spec.Metrics.CtxCancel()
			return rep, cerr
		}
		hi := lo + nextStrip(ctl, lo, total)
		if hi > total {
			hi = total
		}
		valid, committed, stop, err := rt.step(lo, hi, par, seq)
		if err != nil {
			return rep, err
		}
		ctl.Observe(lo, valid, hi, committed)
		if stop {
			return rep, nil
		}
		lo = hi
		if lo >= total {
			break
		}
		if ctl.SwitchSequential() {
			// The policy gave up on speculation: the committed prefix
			// is final, the remainder runs on this goroutine.  Its
			// writes bypass the (released) checkpoint, which is exactly
			// the strip protocol's sequential-fallback contract.
			rep.SeqStrips++
			sv, sdone := seq(lo, total)
			rep.Valid += sv
			rep.Done = sdone
			return rep, nil
		}
		if pipelineOK && ctl.SwitchPipeline() {
			// Promote the remainder: the pipelined engine takes over
			// from the committed boundary with its own double-buffered
			// generations (full checkpoint of the post-prefix state on
			// priming).
			prep, perr := runStrippedPipelinedFrom(ctx, spec, lo, total, nextStrip(ctl, lo, total), par, seq)
			rep.Valid += prep.Valid
			rep.Strips += prep.Strips
			rep.SeqStrips += prep.SeqStrips
			rep.Undone += prep.Undone
			rep.PrefixCommitted += prep.PrefixCommitted
			rep.Overlapped += prep.Overlapped
			rep.Squashed += prep.Squashed
			rep.Done = prep.Done
			return rep, perr
		}
	}
	return rep, nil
}

// nextStrip asks the policy for the strip starting at done, clamped to
// at least one iteration.
func nextStrip(ctl StripController, done, total int) int {
	if s := ctl.NextStrip(done, total); s > 1 {
		return s
	}
	return 1
}
