package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/simproc"
	"whilepar/internal/speculate"
)

// This file measures partial-commit misspeculation recovery against the
// classic all-or-nothing protocol on the workload that motivates it: a
// loop whose single cross-iteration dependence sits late in the
// iteration space (at the ViolationAt fraction — 90% by default), so
// the full-restore baseline throws away an almost entirely valid
// parallel execution and re-runs the whole loop sequentially, while the
// recovery engine commits the valid prefix and re-executes only the
// tail beyond the violation.

// RecBenchResult is one protocol variant's measurement.
type RecBenchResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Valid iterations produced (must equal Iters in both variants).
	Valid int `json:"valid"`
	// PrefixCommitted iterations salvaged by partial commits (0 for the
	// full-restore baseline).
	PrefixCommitted int `json:"prefix_committed"`
	// SeqIters re-executed sequentially after misspeculation.
	SeqIters int `json:"seq_iters"`
}

// RecBenchReport is the recovery measurement, the payload of
// BENCH_3.json.
//
// Following the repo's measurement substrate (see the package comment
// in bench.go): correctness and the protocol accounting come from real
// concurrent execution on the goroutine backend, while the headline
// speedup comes from the deterministic simproc model at Procs virtual
// processors — wall-clock ratios on an arbitrary CI host measure the
// host (this container has one core), not the protocol.
type RecBenchReport struct {
	Bench string `json:"bench"`
	Procs int    `json:"procs"`
	// HostCPUs is runtime.NumCPU() at measurement time; wall-clock
	// guards only demand measured parallel wins when HostCPUs >= Procs.
	HostCPUs int `json:"host_cpus"`
	Iters    int `json:"iters"`
	// Work is the spin-loop units of computation per iteration.
	Work int `json:"work"`
	// ViolationAt is the violation position as a fraction of the
	// iteration space.
	ViolationAt float64 `json:"violation_at"`
	SeqSeconds  float64 `json:"seq_seconds"`
	// NsPerIter is the sequential body cost in nanoseconds — the knob
	// the work-loop calibration targets (see CalibrateWork).
	NsPerIter float64        `json:"ns_per_iter"`
	Baseline  RecBenchResult `json:"baseline"`
	Recovery  RecBenchResult `json:"recovery"`
	// MeasuredSpeedup is wall-clock baseline/recovery on the real
	// backend — machine-dependent, informational only.
	MeasuredSpeedup float64 `json:"measured_speedup"`
	// MeasuredVsSeq is wall-clock sequential/recovery — whether the
	// speculative engine (with recovery on) actually beat plain
	// sequential execution on this host.  Guarded host-aware in
	// CompareRecBench, like the pipebench ratio.
	MeasuredVsSeq float64 `json:"measured_vs_seq"`
	// SimBaseline/SimRecovery are the simulated makespans (abstract
	// units) of the two protocols at Procs virtual processors.
	SimBaseline float64 `json:"sim_baseline"`
	SimRecovery float64 `json:"sim_recovery"`
	// RecoverySpeedup is SimBaseline/SimRecovery — deterministic and
	// machine-independent, the ratio the regression guard tracks.
	RecoverySpeedup float64 `json:"recovery_speedup"`
}

// recWorkload is the late-violation loop: iteration i spins `work`
// units and stores into A[i]; iteration r exposed-reads A[w] first
// (w < r), so the PD test fails with first violation w.
type recWorkload struct {
	a    *mem.Array
	n    int
	w, r int
	work int
}

// spin burns the per-iteration computation; the data dependence on the
// running value keeps it from being optimized away.
func (wl *recWorkload) spin(i int) float64 {
	x := float64(i + 1)
	for k := 0; k < wl.work; k++ {
		x += 1.0 / x
	}
	return x
}

func (wl *recWorkload) par(procs int) speculate.StripPar {
	return func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: procs}, func(k, vpn int) sched.Control {
			i := lo + k
			if i == wl.r {
				v := tr.Load(wl.a, wl.w, i, vpn)
				tr.Store(wl.a, i, wl.spin(i)+v, i, vpn)
			} else {
				tr.Store(wl.a, i, wl.spin(i), i, vpn)
			}
			return sched.Continue
		})
		return res.QuitIndex, false, nil
	}
}

func (wl *recWorkload) seq(lo, hi int) (int, bool) {
	for i := lo; i < hi; i++ {
		if i == wl.r {
			wl.a.Data[i] = wl.spin(i) + wl.a.Data[wl.w]
		} else {
			wl.a.Data[i] = wl.spin(i)
		}
	}
	return hi - lo, false
}

// RecBench measures both protocols on the late-violation workload.
// iters is the iteration count, work the per-iteration spin units; the
// violation is planted at 90% of the space.
func RecBench(procs, iters, work int) RecBenchReport {
	if procs < 1 {
		procs = 1
	}
	if iters < 100 {
		iters = 100
	}
	w := iters * 9 / 10
	wl := &recWorkload{a: mem.NewArray("A", iters), n: iters, w: w, r: w + 7, work: work}
	rep := RecBenchReport{
		Bench: "recbench", Procs: procs, HostCPUs: runtime.NumCPU(),
		Iters: iters, Work: work,
		ViolationAt: float64(w) / float64(iters),
	}

	// Pure sequential reference (also warms the spin path).
	start := time.Now()
	wl.seq(0, iters)
	rep.SeqSeconds = time.Since(start).Seconds()
	rep.NsPerIter = rep.SeqSeconds / float64(iters) * 1e9

	const reps = 3
	measure := func(recover bool) RecBenchResult {
		var out RecBenchResult
		for rip := 0; rip < reps; rip++ {
			for i := range wl.a.Data {
				wl.a.Data[i] = 0
			}
			spec := speculate.Spec{
				Procs:  procs,
				Shared: []*mem.Array{wl.a},
				Tested: []*mem.Array{wl.a},
			}
			if recover {
				spec.Recovery = speculate.Recovery{Enabled: true}
			}
			start := time.Now()
			// One strip over the whole space: the failed strip either
			// salvages its prefix and runs [w, iters) sequentially, or
			// is fully restored and re-runs all of it sequentially.
			r, err := speculate.RunStrips(context.Background(), spec, 0, iters,
				speculate.Strips{Size: iters}, wl.par(procs), wl.seq)
			secs := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("recbench: %v", err))
			}
			if rip == 0 || secs < out.Seconds {
				out = RecBenchResult{Seconds: secs, Valid: r.Valid, PrefixCommitted: r.PrefixCommitted}
				if r.SeqStrips > 0 {
					out.SeqIters = r.Valid - r.PrefixCommitted
				}
			}
		}
		return out
	}

	// Baseline: recovery off — the failed strip is fully restored and
	// the whole loop re-executes sequentially (the classic protocol).
	rep.Baseline = measure(false)
	rep.Baseline.Name = "full-restore"
	// Partial-commit recovery.
	rep.Recovery = measure(true)
	rep.Recovery.Name = "partial-commit"

	if rep.Recovery.Seconds > 0 {
		rep.MeasuredSpeedup = rep.Baseline.Seconds / rep.Recovery.Seconds
		rep.MeasuredVsSeq = rep.SeqSeconds / rep.Recovery.Seconds
	}
	rep.SimBaseline, rep.SimRecovery = simRecoveryProtocols(procs, iters, w)
	if rep.SimRecovery > 0 {
		rep.RecoverySpeedup = rep.SimBaseline / rep.SimRecovery
	}
	return rep
}

// Simulated cost parameters, calibrated like Figure 7's TRACK loop (one
// unit ~= one simple operation): the body costs recWork; a stamped
// store adds recTS, its PD shadow marks recShadow per access; dynamic
// dispatch costs recDispatch per claim; checkpoint/restore copies and
// the PD analysis and stamp scans are parallel sweeps at recCopy,
// recAnalyze and recScan per element.
const (
	recWork     = 24.0
	recTS       = 3.0
	recShadow   = 2.0
	recDispatch = 0.5
	recCopy     = 0.5
	recAnalyze  = 1.0
	recScan     = 0.25
)

// simRecoveryProtocols returns the deterministic makespans of the
// full-restore baseline and the partial-commit recovery on the
// late-violation workload (n iterations, first violation at w) at p
// virtual processors, phase by phase mirroring one whole-space strip
// of speculate.RunStrips:
//
//	baseline: checkpoint + parallel attempt + analysis
//	          + full restore + sequential re-execution of all n
//	recovery: checkpoint + parallel attempt + analysis
//	          + partial commit (stamp scan, suffix restore, re-checkpoint)
//	          + sequential tail of n-w
func simRecoveryProtocols(p, n, w int) (baseline, recovery float64) {
	cost := func(int) float64 { return recWork + recTS + 2*recShadow }
	doall := func(cnt int) float64 {
		m := simproc.New(p)
		return m.DynamicDOALL(cnt, cost, recDispatch, -1, false).Makespan
	}
	sweep := func(cnt int, unit float64) float64 { return float64(cnt) * unit / float64(p) }
	seqDirect := func(cnt int) float64 { return float64(cnt) * recWork }

	attempt := sweep(n, recCopy) + doall(n) + sweep(n, recAnalyze)
	baseline = attempt + sweep(n, recCopy) + seqDirect(n)
	recovery = attempt +
		sweep(n, recScan) + sweep(n-w, recCopy) + sweep(n, recCopy) + // partial commit + rebase
		seqDirect(n-w)
	return baseline, recovery
}

// RenderRecBench formats the report as a text table.
func RenderRecBench(rep RecBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Misspeculation-recovery benchmark — %d procs, %d iters, violation at %.0f%%\n",
		rep.Procs, rep.Iters, rep.ViolationAt*100)
	fmt.Fprintf(&b, "%-16s %10s %10s %16s %10s\n", "protocol", "seconds", "valid", "prefix-committed", "seq-iters")
	for _, r := range []RecBenchResult{rep.Baseline, rep.Recovery} {
		fmt.Fprintf(&b, "%-16s %10.4f %10d %16d %10d\n", r.Name, r.Seconds, r.Valid, r.PrefixCommitted, r.SeqIters)
	}
	fmt.Fprintf(&b, "sequential reference: %.4fs (%.0f ns/iter, host has %d CPUs)\n",
		rep.SeqSeconds, rep.NsPerIter, rep.HostCPUs)
	fmt.Fprintf(&b, "measured wall-clock speedup (this host): %.2fx vs full-restore, %.2fx vs sequential\n",
		rep.MeasuredSpeedup, rep.MeasuredVsSeq)
	fmt.Fprintf(&b, "simulated recovery speedup over full restore (%d VPs): %.2fx\n",
		rep.Procs, rep.RecoverySpeedup)
	return b.String()
}

// RecBenchJSON renders the report as indented JSON (the BENCH_3.json
// payload).
func RecBenchJSON(rep RecBenchReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
