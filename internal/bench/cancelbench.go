package bench

// Cancellation-latency microbenchmark: how long each context-aware
// engine takes to return after its context is canceled mid-run.  The
// cancellation contract is cooperative — the engines observe ctx at
// chunk claims, iteration boundaries and strip boundaries — so the
// latency is bounded by the work in flight when the cancel lands: one
// chunk for the DOALL schedules, one strip for the strip-mined
// protocols.  This benchmark makes that bound observable (and catches
// a regression that turns "one chunk" into "the rest of the loop").

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"whilepar/internal/cancel"
	"whilepar/internal/mem"
	"whilepar/internal/sched"
	"whilepar/internal/speculate"
)

// CancelBenchResult is one engine's measured cancellation behaviour.
type CancelBenchResult struct {
	Name string `json:"name"`
	// LatencySeconds is the wall-clock time from the cancel call to the
	// engine's return (minimum over repetitions — the contract bound,
	// not scheduler noise).
	LatencySeconds float64 `json:"latency_seconds"`
	// Committed is the committed prefix the engine reported on return.
	Committed int `json:"committed"`
	// ExecutedAfterCancel is how many iteration bodies ran after the
	// cancel call (work the cooperative check could not take back).
	ExecutedAfterCancel int `json:"executed_after_cancel"`
}

// CancelBenchReport is the -cancelbench payload.
type CancelBenchReport struct {
	Bench string `json:"bench"`
	Procs int    `json:"procs"`
	// Iters is the loop length; the cancel lands after ~1% of it.
	Iters int `json:"iters"`
	// Work is the spin-loop units per iteration (sets the iteration
	// granularity the latency is measured against).
	Work    int                 `json:"work"`
	Strip   int                 `json:"strip"`
	Engines []CancelBenchResult `json:"engines"`
}

// cancelWorkload builds the instrumented body: iteration `at` triggers
// the cancel, and every body execution after the trigger is counted.
type cancelWorkload struct {
	a    *mem.Array
	work int
	at   int

	canceledAt atomic.Int64 // unix nanos of the stop() call, 0 before
	after      atomic.Int64 // bodies started after the cancel landed
}

func (wl *cancelWorkload) reset() {
	wl.canceledAt.Store(0)
	wl.after.Store(0)
	for i := range wl.a.Data {
		wl.a.Data[i] = 0
	}
}

func (wl *cancelWorkload) spin(i int) float64 {
	x := float64(i + 1)
	for k := 0; k < wl.work; k++ {
		x += 1.0 / x
	}
	return x
}

// body runs one iteration, firing stop() at the trigger iteration.
func (wl *cancelWorkload) body(i int, stop context.CancelFunc) float64 {
	if wl.canceledAt.Load() != 0 {
		wl.after.Add(1)
	} else if i == wl.at {
		wl.canceledAt.Store(time.Now().UnixNano())
		stop()
	}
	return wl.spin(i)
}

// measure runs one engine variant `reps` times and keeps the best
// (minimum-latency) observation.
func (wl *cancelWorkload) measure(name string, reps int,
	run func(ctx context.Context, stop context.CancelFunc) (committed int, err error)) CancelBenchResult {
	out := CancelBenchResult{Name: name}
	for r := 0; r < reps; r++ {
		wl.reset()
		ctx, stop := context.WithCancel(context.Background())
		committed, err := run(ctx, stop)
		returned := time.Now().UnixNano()
		stop()
		if !cancel.IsCancel(err) {
			panic(fmt.Sprintf("cancelbench %s: err = %v", name, err))
		}
		lat := float64(returned-wl.canceledAt.Load()) / 1e9
		if r == 0 || lat < out.LatencySeconds {
			out.LatencySeconds = lat
			out.Committed = committed
			out.ExecutedAfterCancel = int(wl.after.Load())
		}
	}
	return out
}

// CancelBench measures the cancellation latency of the DOALL schedules
// and the strip-mined speculative protocols.  iters is the loop length,
// work the per-iteration spin units, strip the strip size for the
// strip-mined engines.
func CancelBench(procs, iters, strip, work int) CancelBenchReport {
	if procs < 1 {
		procs = 1
	}
	if iters < 1000 {
		iters = 1000
	}
	if strip < 1 {
		strip = 256
	}
	rep := CancelBenchReport{Bench: "cancelbench", Procs: procs, Iters: iters, Strip: strip, Work: work}
	wl := &cancelWorkload{a: mem.NewArray("A", iters), work: work, at: iters / 100}
	const reps = 5

	for _, s := range []struct {
		name string
		sch  sched.Schedule
	}{{"doall-dynamic", sched.Dynamic}, {"doall-static", sched.Static}, {"doall-guided", sched.Guided}} {
		s := s
		rep.Engines = append(rep.Engines, wl.measure(s.name, reps,
			func(ctx context.Context, stop context.CancelFunc) (int, error) {
				res, err := sched.DOALLCtx(ctx, iters, sched.Options{Procs: procs, Schedule: s.sch},
					func(i, vpn int) sched.Control {
						wl.a.Data[i] = wl.body(i, stop)
						return sched.Continue
					})
				return res.Prefix, err
			}))
	}

	spec := func() speculate.Spec {
		return speculate.Spec{Procs: procs, Shared: []*mem.Array{wl.a}, Tested: []*mem.Array{wl.a}}
	}
	stripPar := func(stop context.CancelFunc) speculate.StripPar {
		return func(tr mem.Tracker, lo, hi int) (int, bool, error) {
			res := sched.DOALL(hi-lo, sched.Options{Procs: procs}, func(k, vpn int) sched.Control {
				i := lo + k
				tr.Store(wl.a, i, wl.body(i, stop), i, vpn)
				return sched.Continue
			})
			return res.QuitIndex, false, nil
		}
	}
	stripSeq := func(lo, hi int) (int, bool) { return hi - lo, false }

	rep.Engines = append(rep.Engines, wl.measure("stripped", reps,
		func(ctx context.Context, stop context.CancelFunc) (int, error) {
			r, err := speculate.RunStrips(ctx, spec(), 0, iters, speculate.Strips{Size: strip}, stripPar(stop), stripSeq)
			return r.Valid, err
		}))
	rep.Engines = append(rep.Engines, wl.measure("pipelined", reps,
		func(ctx context.Context, stop context.CancelFunc) (int, error) {
			r, err := speculate.RunStrips(ctx, spec(), 0, iters, speculate.Strips{Size: strip, Pipeline: true}, stripPar(stop), stripSeq)
			return r.Valid, err
		}))
	return rep
}

// RenderCancelBench formats the report as a text table.
func RenderCancelBench(rep CancelBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cancellation-latency benchmark — %d procs, %d iters (cancel at ~1%%), strips of %d\n",
		rep.Procs, rep.Iters, rep.Strip)
	fmt.Fprintf(&b, "%-16s %14s %10s %14s\n", "engine", "latency", "committed", "after-cancel")
	for _, r := range rep.Engines {
		fmt.Fprintf(&b, "%-16s %12.0fµs %10d %14d\n",
			r.Name, r.LatencySeconds*1e6, r.Committed, r.ExecutedAfterCancel)
	}
	b.WriteString("latency: cancel() call to engine return; after-cancel: bodies the cooperative check could not take back\n")
	return b.String()
}

// CancelBenchJSON renders the report as indented JSON.
func CancelBenchJSON(rep CancelBenchReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
