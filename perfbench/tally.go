package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"whilepar"
)

// tally accumulates one timed phase: what every operation took, whether
// its outcome was an expected one, and the counters the library reported
// for it.  Safe for concurrent use by the serve-mixed clients.
type tally struct {
	mu sync.Mutex

	attempted, completed, failed int
	latMs                        []float64
	busy                         time.Duration // Σ operation latency
	valid                        int64         // Σ Report.Valid
	errs                         []string      // first few unexpected outcomes
	listBusy                     time.Duration // latency of list traversals
	listNodes                    int64         // nodes they committed
	// credit[c] is Σ Valid/wantValid over c's operations in the open
	// window: how many full runs of c's sequential loop the committed
	// work is worth.
	credit  map[*loopCase]float64
	windows []window
	// counts at the last window close
	lastCompleted int
	lastValid     int64

	// Report fields, summed over operations that returned one.
	reports, parallel, demoted, audits, respec int
	tiers                                      [3]int
	undone, executed, overshot                 int64
	probeNs                                    int64
	probes                                     int

	// Library counters (traced runs only): per-operation snapshots summed.
	snap  whilepar.MetricsSnapshot
	snaps int

	// serve-mixed: outcome shares and the per-job service breakdown.
	outcomes                             map[string]int
	submitMs, queueMs, runMs, overheadMs []float64
}

func newTally() *tally {
	return &tally{outcomes: map[string]int{}, credit: map[*loopCase]float64{}}
}

// window is one slice of the measured phase: the rates of the
// end-to-end metrics are medians over windows, which keeps a burst of
// slow machine time from moving the whole run.
type window struct {
	ops   int
	valid int64
	wall  time.Duration
	seqNs float64 // plain-Go time of the window's committed work
}

// closeWindow ends the open window, which took wall; every case's
// lastNs must have been sampled just before.
func (t *tally) closeWindow(wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := window{ops: t.completed - t.lastCompleted, valid: t.valid - t.lastValid, wall: wall}
	for c, runs := range t.credit {
		w.seqNs += runs * c.lastNs
	}
	t.windows = append(t.windows, w)
	t.credit = map[*loopCase]float64{}
	t.lastCompleted, t.lastValid = t.completed, t.valid
}

// rate is the median over windows of f(window) per second of its wall.
func (t *tally) rate(f func(w window) float64) float64 {
	rs := make([]float64, 0, len(t.windows))
	for _, w := range t.windows {
		rs = append(rs, frac(f(w), w.wall.Seconds()))
	}
	return median(rs)
}

// opsPerSec is the median window throughput.
func (t *tally) opsPerSec() float64 {
	return t.rate(func(w window) float64 { return float64(w.ops) })
}

// seqNs is the plain-Go time of all committed work.
func (t *tally) seqNs() float64 {
	var ns float64
	for _, w := range t.windows {
		ns += w.seqNs
	}
	return ns
}

// add records one finished operation.  rep is nil when the operation
// produced no report (refused, or failed before running); bad is non-nil
// when its outcome was not an expected one.
func (t *tally) add(c *loopCase, rep *whilepar.Report, lat time.Duration, bad error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if bad != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, bad.Error())
		}
	}
	if lat > 0 {
		t.completed++
		t.latMs = append(t.latMs, float64(lat.Nanoseconds())/1e6)
		t.busy += lat
	}
	if rep == nil {
		return
	}
	t.reports++
	t.valid += int64(rep.Valid)
	if c != nil && c.kind == "list" && lat > 0 {
		t.listBusy += lat
		t.listNodes += int64(rep.Valid)
	}
	if c != nil && c.wantValid > 0 {
		t.credit[c] += float64(rep.Valid) / float64(c.wantValid)
	}
	if rep.UsedParallel {
		t.parallel++
	}
	if rep.ValidationTier >= 0 && rep.ValidationTier < len(t.tiers) {
		t.tiers[rep.ValidationTier]++
	}
	if rep.TierDemoted {
		t.demoted++
	}
	t.audits += rep.AuditRuns
	t.respec += rep.RespecRounds
	t.undone += int64(rep.Undone)
	t.executed += int64(rep.Executed)
	t.overshot += int64(rep.Overshot)
	if rep.ProbeIters > 0 {
		t.probes++
		t.probeNs += rep.ProbeNs
	}
	if rep.Metrics != nil {
		t.addSnap(*rep.Metrics)
	}
}

// merge folds another phase's operation counts and errors into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

func (t *tally) addSnap(s whilepar.MetricsSnapshot) {
	s.PDVerdicts = nil // unbounded; the counts carry what the metrics need
	t.snap = t.snap.Add(s)
	t.snaps++
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd renders the user-visible metrics.  Rates are medians over the
// windows, each against its timed wall clock (Σ operation latency for a
// single caller, the closed loop's elapsed time for serve-mixed);
// allocBytes is the heap allocated over the phase.
func (t *tally) endToEnd(allocBytes uint64, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {t.opsPerSec(), "1/s"},
		"iters_per_s":     {t.rate(func(w window) float64 { return float64(w.valid) }), "1/s"},
		"latency_p50_ms":  {quantile(t.latMs, 0.5), "ms"},
		"latency_p90_ms":  {quantile(t.latMs, 0.9), "ms"},
		"speedup_vs_seq":  {t.rate(func(w window) float64 { return w.seqNs / 1e9 }), "x"},
		"alloc_kb_per_op": {frac(float64(allocBytes)/1024, float64(t.attempted)), "KiB"},
		"max_rss_mb":      {maxRSSMiB(), "MiB"},
		"success_frac":    {1 - frac(float64(t.failed), float64(t.attempted)), "ratio"},
	}
}

// perLayer renders the counter-derived layer metrics of a traced phase.
func (t *tally) perLayer() map[string]metric {
	ops := float64(t.reports)
	s := t.snap
	m := map[string]metric{
		"sched.pool_dispatches_per_op":   {frac(float64(s.PoolDispatches), float64(t.snaps)), "count"},
		"sched.steal_chunks_per_op":      {frac(float64(s.StealChunks), float64(t.snaps)), "count"},
		"tsmem.undone_per_op":            {frac(float64(t.undone), ops), "count"},
		"tsmem.checkpoint_words_per_op":  {frac(float64(s.CheckpointWords+s.DeltaCheckpointWords), float64(t.snaps)), "count"},
		"pdtest.fail_frac":               {frac(float64(s.PDFail), float64(s.PDTests)), "ratio"},
		"sig.false_positive_frac":        {frac(float64(s.SigFalsePositives), float64(s.SigValidations)), "ratio"},
		"speculate.useful_frac":          {frac(float64(t.executed-t.overshot), float64(t.executed)), "ratio"},
		"speculate.abort_frac":           {frac(float64(s.SpecAborts), float64(s.SpecAttempts)), "ratio"},
		"speculate.respec_rounds_per_op": {frac(float64(t.respec), ops), "count"},
		"core.tier0_frac":                {frac(float64(t.tiers[0]), ops), "ratio"},
		"core.tier1_frac":                {frac(float64(t.tiers[1]), ops), "ratio"},
		"core.tier2_frac":                {frac(float64(t.tiers[2]), ops), "ratio"},
		"core.tier_demotions_per_op":     {frac(float64(t.demoted), ops), "count"},
		"core.audit_runs_per_op":         {frac(float64(t.audits), ops), "count"},
		"core.parallel_frac":             {frac(float64(t.parallel), ops), "ratio"},
		"autotune.probe_ms":              {frac(float64(t.probeNs)/1e6, float64(t.probes)), "ms"},
		"ref.seq_ms_per_op":              {frac(t.seqNs()/1e6, ops), "ms"},
		"latency_samples":                {float64(len(t.latMs)), "count"},
	}
	for _, o := range outcomeNames {
		m["serve."+o+"_frac"] = metric{frac(float64(t.outcomes[o]), float64(t.attempted)), "ratio"}
	}
	if len(t.submitMs) > 0 {
		m["serve.submit_ms"] = metric{quantile(t.submitMs, 0.5), "ms"}
		m["serve.queue_wait_p50_ms"] = metric{quantile(t.queueMs, 0.5), "ms"}
		m["serve.run_p50_ms"] = metric{quantile(t.runMs, 0.5), "ms"}
		m["serve.overhead_p50_ms"] = metric{quantile(t.overheadMs, 0.5), "ms"}
	}
	return m
}

// outcomeNames are the serve-mixed job outcomes reported as shares.
var outcomeNames = []string{"done", "deadline", "canceled", "panic", "unexpected"}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
