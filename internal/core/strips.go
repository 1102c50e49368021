package core

import (
	"context"

	"whilepar/internal/cancel"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/speculate"
)

// stripTally accumulates the strip runners' DOALL accounting.  The
// engine serializes successive runner calls (each overlapped pipelined
// strip is joined before the next launches), so plain ints suffice.
type stripTally struct{ executed, overshot int }

// stripRunners builds speculate.RunStrips's runners for a loop whose
// i-th dispatcher term is cf.At(i): an induction's closed form, or
// precomputed terms (termsAt).  The parallel runner executes strip
// [lo, hi) as one DOALL under so, evaluating each term directly at its
// global index, and re-anchors a contained panic's strip-local
// iteration index to the global space before it unwinds.  Both runners
// stop at the RI condition (l.Cond) or a false Body.
func stripRunners[D any](ctx context.Context, l *loopir.Loop[D], cf loopir.ClosedForm[D], so sched.Options,
	tally *stripTally) (speculate.StripPar, speculate.StripSeq) {
	cond, body := l.Cond, l.Body
	par := func(trk mem.Tracker, lo, hi int) (int, bool, error) {
		res, err := sched.DOALLCtx(ctx, hi-lo, so, func(i, vpn int) sched.Control {
			gi := lo + i
			d := cf.At(gi)
			if cond != nil && !cond(d) {
				return sched.Quit
			}
			it := loopir.Iter{Index: gi, VPN: vpn, Tracker: trk}
			if !body(&it, d) {
				return sched.Quit
			}
			return sched.Continue
		})
		tally.executed += res.Executed
		tally.overshot += res.Overshot
		if pe, ok := cancel.AsPanic(err); ok && pe.Iter >= 0 {
			pe.Iter += lo
		}
		return res.QuitIndex, res.QuitIndex < hi-lo, err
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			d := cf.At(i)
			if cond != nil && !cond(d) {
				return i - lo, true
			}
			it := loopir.Iter{Index: i, VPN: 0}
			if !body(&it, d) {
				return i - lo, true
			}
		}
		return hi - lo, false
	}
	return par, seq
}

// termsAt is the closed form of a loop whose dispatcher terms were
// precomputed (parallel prefix or the naive sequential distribution).
type termsAt []float64

func (t termsAt) At(i int) float64 { return t[i] }

// pipeStrip sizes the strips of a pipelined speculative execution:
// small enough that many strips flow through the pipeline (a failed
// strip forfeits little work and the PD-test overlap repeats often),
// large enough that each strip amortizes its checkpoint and barrier.
func pipeStrip(total, procs int) int {
	s := total / 16
	if min := 4 * procs; s < min {
		s = min
	}
	if s > total {
		s = total
	}
	if s < 1 {
		s = 1
	}
	return s
}

// runStripsPipelined runs the speculative section of a StrategyPipeline
// execution over [0, n) as pipelined strips: each strip is a
// pool-backed DOALL evaluating cf's terms, and strip k+1's execution
// overlaps strip k's PD test and commit.
func runStripsPipelined[D any](ctx context.Context, l *loopir.Loop[D], cf loopir.ClosedForm[D], n int,
	opt Options, pool *sched.Pool, rep Report) (Report, error) {
	var tally stripTally
	par, seq := stripRunners(ctx, l, cf, sched.Options{Procs: opt.procs(), Schedule: opt.Schedule,
		Metrics: opt.Metrics, Tracer: opt.Tracer, Pool: pool}, &tally)
	srep, err := speculate.RunStrips(ctx,
		speculate.Spec{Procs: opt.procs(), Shared: opt.Shared, Tested: opt.Tested,
			PanicFallback: opt.FallbackSequential, Metrics: opt.Metrics, Tracer: opt.Tracer},
		0, n, speculate.Strips{Size: pipeStrip(n, opt.procs()), Pipeline: true}, par, seq)
	rep.Valid = srep.Valid
	rep.Undone = srep.Undone
	rep.PrefixCommitted = srep.PrefixCommitted
	rep.Executed, rep.Overshot = tally.executed, tally.overshot
	rep.Strategy += " + pipelined strip speculation"
	if err != nil {
		// srep.Valid is the committed-strip prefix on cancellation.
		return finish(rep, opt), err
	}
	rep.UsedParallel = true
	recordStats(opt, rep.Valid)
	return finish(rep, opt), nil
}
