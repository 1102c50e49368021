package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"whilepar/internal/mem"
	"whilepar/internal/pdtest"
	"whilepar/internal/sched"
	"whilepar/internal/sig"
	"whilepar/internal/speculate"
)

// This file measures the validation-tier dial on the workload it exists
// for: a clean strip-mined loop whose every strip validates.  Two
// questions, two measurements:
//
//  1. How much cheaper is Tier-1 signature validation than the Tier-0
//     element-wise machinery?  A microbenchmark runs the same
//     disjoint-store access pattern through both validators — per round,
//     mark every access and render the verdict — and compares the
//     per-element cost.  The PD test pays a shadow record per element
//     plus an O(n) analysis sweep; the signature pays one hash+bit-set
//     per access plus a verdict that touches only the dirty filter
//     words.
//
//  2. Is Tier-2 trusted execution really (almost) free?  The strip
//     engine runs the same clean loop at all three tiers, next to an
//     uninstrumented strip-by-strip DOALL of the same body — the price
//     of admission the dial is trying to eliminate.  TrustedVsDirect is
//     the residual overhead of Tier 2 (sampled audits included); the
//     guard wants it within 15% of the raw DOALL.

// SigTierResult is one tier's engine-level measurement.
type SigTierResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Valid iterations produced (must equal Iters — the workload is
	// clean, so nothing may demote or fall back).
	Valid int `json:"valid"`
	// Tier the run finished at; Demoted must stay false on this loop.
	Tier    int  `json:"tier"`
	Demoted bool `json:"demoted"`
	// SigFalsePositives counts Tier-1 aliasing re-runs; AuditRuns the
	// Tier-2 strips re-armed under the full machinery.
	SigFalsePositives int `json:"sig_false_positives"`
	AuditRuns         int `json:"audit_runs"`
}

// SigBenchReport is the validation-tier measurement, the payload of
// BENCH_9.json.
type SigBenchReport struct {
	Bench string `json:"bench"`
	Procs int    `json:"procs"`
	// HostCPUs is runtime.NumCPU() at measurement time; the absolute
	// guards in CompareSigBench only apply on hosts at least as wide as
	// the baseline's.
	HostCPUs int `json:"host_cpus"`
	Iters    int `json:"iters"`
	// Strip is the engine strip size, snapped up to a multiple of
	// 64*Procs so Stealing blocks stay signature-block aligned (the
	// alignment Tier 1 needs to be alias-free on disjoint strips).
	Strip int `json:"strip"`
	// Work is the spin-loop units per iteration; NsPerIter the measured
	// sequential body cost the calibration targets.
	Work       int     `json:"work"`
	NsPerIter  float64 `json:"ns_per_iter"`
	SeqSeconds float64 `json:"seq_seconds"`

	// Validation microbenchmark: per-element cost of mark+verdict for
	// the element-wise PD test (Tier 0) and the hash signatures
	// (Tier 1) on an identical disjoint-store round.
	VerifyElems    int     `json:"verify_elems"`
	VerifyRounds   int     `json:"verify_rounds"`
	Tier0NsPerElem float64 `json:"tier0_ns_per_elem"`
	Tier1NsPerElem float64 `json:"tier1_ns_per_elem"`
	// Tier1Speedup is Tier0/Tier1 per-element validation cost — the
	// machine-portable ratio the guard tracks (>= 2 absolutely on a
	// host as wide as the baseline's).
	Tier1Speedup float64 `json:"tier1_speedup"`

	// Engine-level wall clock on the clean loop, min of reps.
	Full      SigTierResult `json:"full"`
	Signature SigTierResult `json:"signature"`
	Trusted   SigTierResult `json:"trusted"`
	// DirectSeconds is the uninstrumented strip-by-strip DOALL — same
	// body, same schedule, no speculation machinery at all.
	DirectSeconds float64 `json:"direct_seconds"`
	// SignatureVsFull is Full/Signature wall clock (> 1 means Tier 1
	// beat the element-wise machinery end to end).
	SignatureVsFull float64 `json:"signature_vs_full"`
	// TrustedVsDirect is Trusted/Direct wall clock — the residual cost
	// of the Tier-2 protocol (checkpoints it still takes, audits it
	// still samples).  The guard wants <= 1.15 absolutely on a host as
	// wide as the baseline's.
	TrustedVsDirect float64 `json:"trusted_vs_direct"`
}

// sigWorkload is the clean strip-mined loop: iteration i spins `work`
// units and stores into A[i]; no iteration reads another's store, so
// every strip validates at every tier.
type sigWorkload struct {
	a    *mem.Array
	work int
}

func (wl *sigWorkload) spin(i int) float64 {
	x := float64(i + 1)
	for k := 0; k < wl.work; k++ {
		x += 1.0 / x
	}
	return x
}

// par builds the strip runner on the Stealing schedule (the one the
// tier dial requires).  The tracker is nil when the engine runs the
// strip shadow-free (Tier 2's direct strips); the body then writes the
// array directly, exactly as loopir.Iter does.
func (wl *sigWorkload) par(procs int) speculate.StripPar {
	return func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: procs, Schedule: sched.Stealing},
			func(k, vpn int) sched.Control {
				i := lo + k
				v := wl.spin(i)
				if tr == nil {
					wl.a.Data[i] = v
				} else {
					tr.Store(wl.a, i, v, i, vpn)
				}
				return sched.Continue
			})
		return res.QuitIndex, false, nil
	}
}

func (wl *sigWorkload) seq(lo, hi int) (int, bool) {
	for i := lo; i < hi; i++ {
		wl.a.Data[i] = wl.spin(i)
	}
	return hi - lo, false
}

// sigVerifyTime times `rounds` executions of one validator round after
// a warm-up round outside the clock (first-touch allocation, lazily
// built shadow pages).  Each round marks the disjoint read-modify-write
// pattern a tracked A[i] = f(A[i]) loop produces — worker vpn owns the
// 64-element block of each index, mirroring an aligned Stealing strip —
// and renders the verdict; both validators' rounds are written as the
// same shape of direct-call loop so the measured difference is the
// validation machinery, not driver overhead.
func sigVerifyTime(rounds int, round func()) float64 {
	round()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		round()
	}
	return time.Since(start).Seconds()
}

// SigBench measures the validation tiers: the mark+verdict
// microbenchmark and the engine-level clean-loop comparison.  iters is
// the loop trip count, strip the requested strip size (snapped to the
// 64*procs signature grain), work the per-iteration spin units.
func SigBench(procs, iters, strip, work int) SigBenchReport {
	if procs < 1 {
		procs = 1
	}
	grain := (1 << sig.DefaultBlockShift) * procs
	if strip < grain {
		strip = grain
	}
	strip = (strip + grain - 1) / grain * grain
	if iters < 4*strip {
		iters = 4 * strip
	}
	iters = (iters + strip - 1) / strip * strip

	wl := &sigWorkload{a: mem.NewArray("A", iters), work: work}
	rep := SigBenchReport{
		Bench: "sigbench", Procs: procs, HostCPUs: runtime.NumCPU(),
		Iters: iters, Strip: strip, Work: work,
	}

	// Sequential reference (also warms the spin path).
	start := time.Now()
	wl.seq(0, iters)
	rep.SeqSeconds = time.Since(start).Seconds()
	rep.NsPerIter = rep.SeqSeconds / float64(iters) * 1e9

	// --- Validation microbenchmark -------------------------------------
	// One strip's worth of disjoint stores through each validator.
	elems, rounds := strip, 48
	rep.VerifyElems, rep.VerifyRounds = elems, rounds
	perElem := func(secs float64) float64 {
		return secs / float64(rounds) / float64(elems) * 1e9
	}

	const blockElems = 1 << sig.DefaultBlockShift
	va := mem.NewArray("V", elems)
	pd := pdtest.New(va, procs)
	rep.Tier0NsPerElem = perElem(sigVerifyTime(rounds, func() {
		vpn := 0
		for lo := 0; lo < elems; lo += blockElems {
			for i := lo; i < lo+blockElems; i++ {
				pd.MarkLoad(va, i, i, vpn)
				pd.MarkStore(va, i, i, vpn)
			}
			if vpn++; vpn == procs {
				vpn = 0
			}
		}
		if res := pd.AnalyzeQuiet(elems); !res.DOALL {
			panic("sigbench: PD test flagged the disjoint round")
		}
		pd.Reset()
	}))
	pd.Release()

	sg := sig.New(procs, []*mem.Array{va}, sig.Config{})
	rep.Tier1NsPerElem = perElem(sigVerifyTime(rounds, func() {
		vpn := 0
		for lo := 0; lo < elems; lo += blockElems {
			for i := lo; i < lo+blockElems; i++ {
				sg.MarkLoad(va, i, i, vpn)
				sg.MarkStore(va, i, i, vpn)
			}
			if vpn++; vpn == procs {
				vpn = 0
			}
		}
		if sg.Conflict() {
			panic("sigbench: signatures flagged the disjoint round")
		}
		sg.Reset()
	}))
	sg.Release()
	if rep.Tier1NsPerElem > 0 {
		rep.Tier1Speedup = rep.Tier0NsPerElem / rep.Tier1NsPerElem
	}

	// --- Engine-level comparison ---------------------------------------
	spec := func(tier speculate.Tier) speculate.Spec {
		return speculate.Spec{
			Procs:  procs,
			Shared: []*mem.Array{wl.a},
			Tested: []*mem.Array{wl.a},
			Tier:   tier,
			// Deterministic audit phase so every rep samples the same
			// strips (phase 0 of each DefaultAuditEvery period).
			AuditPhase: 1,
		}
	}
	const reps = 3
	measure := func(tier speculate.Tier) SigTierResult {
		var out SigTierResult
		for rip := 0; rip < reps; rip++ {
			for i := range wl.a.Data {
				wl.a.Data[i] = 0
			}
			start := time.Now()
			r, err := speculate.RunStrips(context.Background(), spec(tier), 0, iters,
				speculate.Strips{Size: strip}, wl.par(procs), wl.seq)
			secs := time.Since(start).Seconds()
			if err != nil {
				panic(fmt.Sprintf("sigbench: %v", err))
			}
			if rip == 0 || secs < out.Seconds {
				out = SigTierResult{Seconds: secs, Valid: r.Valid,
					Tier: int(r.Tier), Demoted: r.TierDemoted,
					SigFalsePositives: r.SigFalsePositives, AuditRuns: r.AuditRuns}
			}
		}
		return out
	}
	rep.Full = measure(speculate.TierFull)
	rep.Full.Name = "tier0-full"
	rep.Signature = measure(speculate.TierSignature)
	rep.Signature.Name = "tier1-signature"
	rep.Trusted = measure(speculate.TierTrusted)
	rep.Trusted.Name = "tier2-trusted"

	// Uninstrumented baseline: the same strip-by-strip DOALL with the
	// body writing the array directly — no checkpoint, no tracking, no
	// validation.  What a compiler that had *proven* independence would
	// emit.
	for rip := 0; rip < reps; rip++ {
		for i := range wl.a.Data {
			wl.a.Data[i] = 0
		}
		par := wl.par(procs)
		start := time.Now()
		for lo := 0; lo < iters; lo += strip {
			hi := lo + strip
			if hi > iters {
				hi = iters
			}
			if _, _, err := par(nil, lo, hi); err != nil {
				panic(fmt.Sprintf("sigbench direct: %v", err))
			}
		}
		secs := time.Since(start).Seconds()
		if rip == 0 || secs < rep.DirectSeconds {
			rep.DirectSeconds = secs
		}
	}

	if rep.Signature.Seconds > 0 {
		rep.SignatureVsFull = rep.Full.Seconds / rep.Signature.Seconds
	}
	if rep.DirectSeconds > 0 {
		rep.TrustedVsDirect = rep.Trusted.Seconds / rep.DirectSeconds
	}
	return rep
}

// CompareSigBench checks a fresh run against a recorded baseline and
// returns human-readable regression messages (empty means pass).
//
// Guard structure (the repo convention): a workload-shape gate first —
// the ratios depend on iters/strip/work/procs, so only a run at the
// baseline's own shape is comparable; then relative guards against the
// recorded ratios at tolerance tol; then the absolute floors the ISSUE
// acceptance names — Tier-1 validation at least 2x cheaper than Tier-0
// and Tier-2 within 1.15x of the uninstrumented DOALL — applied only
// when the current host is at least as wide as the baseline's (a
// starved CI container measures the host, not the protocol).
func CompareSigBench(cur, base SigBenchReport, tol float64) []string {
	var regs []string
	if base.Iters > 0 && (cur.Iters != base.Iters || cur.Strip != base.Strip ||
		cur.Work != base.Work || cur.Procs != base.Procs) {
		return regs
	}
	if base.Tier1Speedup > 0 && cur.Tier1Speedup < base.Tier1Speedup*(1-tol) {
		regs = append(regs, fmt.Sprintf(
			"sigbench tier1_speedup: %.2fx is below baseline %.2fx - %.0f%% (floor %.2fx)",
			cur.Tier1Speedup, base.Tier1Speedup, tol*100, base.Tier1Speedup*(1-tol)))
	}
	if base.TrustedVsDirect > 0 && cur.TrustedVsDirect > base.TrustedVsDirect*(1+tol) {
		regs = append(regs, fmt.Sprintf(
			"sigbench trusted_vs_direct: %.3fx is above baseline %.3fx + %.0f%% (ceiling %.3fx)",
			cur.TrustedVsDirect, base.TrustedVsDirect, tol*100, base.TrustedVsDirect*(1+tol)))
	}
	if base.HostCPUs <= 0 || cur.HostCPUs < base.HostCPUs {
		return regs
	}
	if cur.Tier1Speedup < 2.0 {
		regs = append(regs, fmt.Sprintf(
			"sigbench tier1_speedup: %.2fx is below the 2.00x absolute floor (tier-1 signatures must halve validation cost)",
			cur.Tier1Speedup))
	}
	if cur.TrustedVsDirect > 1.15 {
		regs = append(regs, fmt.Sprintf(
			"sigbench trusted_vs_direct: %.3fx is above the 1.15x absolute ceiling (tier-2 must track the uninstrumented DOALL)",
			cur.TrustedVsDirect))
	}
	if cur.Full.Valid != cur.Iters || cur.Signature.Valid != cur.Iters || cur.Trusted.Valid != cur.Iters {
		regs = append(regs, fmt.Sprintf(
			"sigbench valid: full=%d signature=%d trusted=%d, want %d at every tier (clean loop)",
			cur.Full.Valid, cur.Signature.Valid, cur.Trusted.Valid, cur.Iters))
	}
	if cur.Signature.Demoted || cur.Trusted.Demoted {
		regs = append(regs, fmt.Sprintf(
			"sigbench demotion on the clean loop: signature=%v trusted=%v, want false",
			cur.Signature.Demoted, cur.Trusted.Demoted))
	}
	return regs
}

// RenderSigBench formats the report as a text table.
func RenderSigBench(rep SigBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Validation-tier benchmark — %d procs, %d iters in strips of %d (host has %d CPUs)\n",
		rep.Procs, rep.Iters, rep.Strip, rep.HostCPUs)
	fmt.Fprintf(&b, "validation microbench (%d elems x %d rounds, mark+verdict):\n",
		rep.VerifyElems, rep.VerifyRounds)
	fmt.Fprintf(&b, "  tier0 element-wise %8.1f ns/elem\n", rep.Tier0NsPerElem)
	fmt.Fprintf(&b, "  tier1 signatures   %8.1f ns/elem   (%.2fx cheaper)\n",
		rep.Tier1NsPerElem, rep.Tier1Speedup)
	fmt.Fprintf(&b, "clean-loop engine wall clock (body ~%.0f ns/iter):\n", rep.NsPerIter)
	fmt.Fprintf(&b, "  %-16s %10s %10s %5s %8s %7s %7s\n",
		"engine", "seconds", "valid", "tier", "demoted", "sig-fp", "audits")
	for _, r := range []SigTierResult{rep.Full, rep.Signature, rep.Trusted} {
		fmt.Fprintf(&b, "  %-16s %10.4f %10d %5d %8v %7d %7d\n",
			r.Name, r.Seconds, r.Valid, r.Tier, r.Demoted, r.SigFalsePositives, r.AuditRuns)
	}
	fmt.Fprintf(&b, "  %-16s %10.4f   (uninstrumented strip DOALL)\n", "direct", rep.DirectSeconds)
	fmt.Fprintf(&b, "signature vs full: %.2fx, trusted vs direct: %.3fx (sequential reference %.4fs)\n",
		rep.SignatureVsFull, rep.TrustedVsDirect, rep.SeqSeconds)
	return b.String()
}

// SigBenchJSON renders the report as indented JSON (the BENCH_9.json
// payload).
func SigBenchJSON(rep SigBenchReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// ParseSigBench decodes a recorded BENCH_9.json payload.
func ParseSigBench(data []byte) (SigBenchReport, error) {
	var rep SigBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: bad sigbench baseline: %w", err)
	}
	if rep.Bench != "sigbench" {
		return rep, fmt.Errorf("bench: baseline is %q, want \"sigbench\"", rep.Bench)
	}
	return rep, nil
}
