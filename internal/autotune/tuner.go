package autotune

import (
	"whilepar/internal/obs"
)

// RetuneEvent records one mid-run strategy adjustment, in order, so a
// Report can show *why* an auto-tuned run ended on the engine it did.
type RetuneEvent struct {
	// AtIter is the global iteration boundary the decision was taken
	// at (the end of the strip that triggered it).
	AtIter int `json:"at_iter"`
	// Action is "grow", "shrink", "pipeline" or "sequential".
	Action string `json:"action"`
	// Strip is the strip size in force after the adjustment.
	Strip int `json:"strip"`
}

// TunerConfig parameterizes a Tuner.
type TunerConfig struct {
	// Plan is the initial decision the Tuner starts from.
	Plan Plan
	// Procs and Total bound the strip-size range.
	Procs, Total int
	// PipelineOK permits the mid-run promotion to the pipelined
	// engine (false when the speculation mode cannot be squashed —
	// sparse undo logs or privatized copies).
	PipelineOK bool
	// Metrics is consulted per strip: the Tuner reads the deltas of
	// the PD-fail and speculation-abort counters the execution is
	// already accumulating, so its verdicts corroborate the engine's
	// own clean/violated signal.  May be nil.
	Metrics *obs.Metrics
}

// Tuner re-decides strip size and engine mid-run.  It implements the
// speculate.StripController contract: the engine asks NextStrip before
// each strip, reports each outcome through Observe, and consults
// SwitchPipeline/SwitchSequential at strip boundaries.
//
// The policy is the one the ISSUE's retune loop describes:
//
//   - a violated strip halves the strip size (a smaller bet forfeits
//     less on the next failure), and three consecutive violations give
//     up on speculation entirely — the remainder runs sequentially;
//   - a clean streak doubles the strip size (fewer barriers and
//     checkpoints per iteration), and a streak of three promotes the
//     run to the pipelined engine, which hides the PD test behind the
//     next strip's execution.
//
// Both switches are one-way within a run: the profile, not the run,
// carries the lesson back to the next invocation.
type Tuner struct {
	cfg                TunerConfig
	strip              int
	minStrip, maxStrip int
	cleanStreak        int
	violStreak         int
	pipeline           bool
	sequential         bool
	lastPDFail         int64
	lastAborts         int64
	events             []RetuneEvent
}

// NewTuner returns a Tuner starting from cfg.Plan; a Pipelined plan
// asks for the pipelined engine from the first strip on.
func NewTuner(cfg TunerConfig) *Tuner {
	procs := cfg.Procs
	if procs < 1 {
		procs = 1
	}
	t := &Tuner{cfg: cfg, strip: cfg.Plan.Strip, minStrip: procs, pipeline: cfg.Plan.Engine == Pipelined}
	if t.strip < 1 {
		t.strip = 1
	}
	t.maxStrip = cfg.Total / 2
	if t.maxStrip < t.strip {
		t.maxStrip = t.strip
	}
	if m := cfg.Metrics; m != nil {
		s := m.Snapshot()
		t.lastPDFail, t.lastAborts = s.PDFail, s.SpecAborts
	}
	return t
}

// NextStrip returns the strip size for the strip starting at done.
func (t *Tuner) NextStrip(done, total int) int { return t.strip }

// Observe reports the outcome of the strip [lo, hi): committed is the
// engine's own verdict (PD passed, no exception).  The Tuner
// corroborates it against the obs counter deltas — a PD failure or
// speculation abort recorded since the last strip marks the strip
// violated even if the caller's flag disagrees — and adjusts.
func (t *Tuner) Observe(lo, valid, hi int, committed bool) {
	violated := !committed
	if m := t.cfg.Metrics; m != nil {
		s := m.Snapshot()
		if s.PDFail > t.lastPDFail || s.SpecAborts > t.lastAborts {
			violated = true
		}
		t.lastPDFail, t.lastAborts = s.PDFail, s.SpecAborts
	}
	if violated {
		t.violStreak++
		t.cleanStreak = 0
		if t.strip > t.minStrip {
			t.strip /= 2
			if t.strip < t.minStrip {
				t.strip = t.minStrip
			}
			t.record(hi, "shrink")
		}
		if t.violStreak >= 3 && !t.sequential {
			t.sequential = true
			t.cfg.Metrics.StrategySwitch()
			t.record(hi, "sequential")
		}
		return
	}
	t.cleanStreak++
	t.violStreak = 0
	if t.cleanStreak >= 2 && t.strip < t.maxStrip {
		t.strip *= 2
		if t.strip > t.maxStrip {
			t.strip = t.maxStrip
		}
		t.record(hi, "grow")
	}
	if t.cleanStreak >= 3 && t.cfg.PipelineOK && !t.pipeline {
		t.pipeline = true
		t.cfg.Metrics.StrategySwitch()
		t.record(hi, "pipeline")
	}
}

// SwitchPipeline reports whether the remainder should move to the
// pipelined engine.
func (t *Tuner) SwitchPipeline() bool { return t.pipeline }

// SwitchSequential reports whether the remainder should finish
// sequentially.
func (t *Tuner) SwitchSequential() bool { return t.sequential }

// Events returns the retune decisions taken so far, in order.
func (t *Tuner) Events() []RetuneEvent { return t.events }

func (t *Tuner) record(at int, action string) {
	t.events = append(t.events, RetuneEvent{AtIter: at, Action: action, Strip: t.strip})
}
