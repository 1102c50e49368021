package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"whilepar"
	"whilepar/internal/autotune"
	"whilepar/internal/genrec"
	"whilepar/internal/pdtest"
	"whilepar/internal/sched"
	"whilepar/internal/sig"
	"whilepar/internal/tsmem"
)

// The layer probes time calls into each layer's public functions from
// outside, at the sizes and with the bodies of the workload's own probe
// case, so each microbenchmark sits next to the engine-level number it is
// meant to explain.  Each probe reports the median of a few rounds.

const probeRounds = 5

// timeRounds runs round probeRounds times after one warm-up and returns
// the median duration.
func timeRounds(round func() time.Duration) time.Duration {
	round()
	ds := make([]float64, probeRounds)
	for r := range ds {
		ds[r] = float64(round())
	}
	return time.Duration(median(ds))
}

// probeCase picks the case with the median reference time among those
// whose body the probes can run directly (every workload has some).
func probeCase(cases []*loopCase) *loopCase {
	var cs []*loopCase
	for _, c := range cases {
		if c.bodyIter != nil {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, k int) bool { return cs[i].seqNs < cs[k].seqNs })
	return cs[len(cs)/2]
}

// runProbes measures every probe-based layer metric for the workload.
//
// listBusy and listNodes are the traced phase's time in, and nodes
// committed by, list traversals (zero when the workload runs none).
func runProbes(ctx context.Context, seed int64, cases []*loopCase, listBusy time.Duration, listNodes int64, rec *spanRec) map[string]metric {
	procs := runtime.GOMAXPROCS(0)
	out := map[string]metric{}
	probe := func(name string, f func() float64, unit string) {
		sp := rec.begin(0, 0, "probe:"+name)
		out[name] = metric{f(), unit}
		sp.end()
	}

	probe("sched.barrier_rt_us", func() float64 { return barrierRT(sched.NewPool(procs)) }, "us")
	probe("sched.shared_barrier_rt_us", func() float64 { return barrierRT(sched.NewSharedPool(procs)) }, "us")

	c := probeCase(cases)
	arrs := c.fresh()
	probe("sched.doall_ns_per_iter", func() float64 { return doallPerIter(c, arrs, procs) }, "ns")

	// Strip-sized slices of the case's first array: the strip the
	// stripped engine starts with, in elements.
	a := arrs[0]
	strip := autotune.AlignStrip(autotune.InitialStrip(autotune.Profile{}, false, c.n, procs), procs)
	elems := strip * len(a.Data) / c.n
	if elems > len(a.Data) {
		elems = len(a.Data)
	}
	if elems < 64 {
		elems = min(64, len(a.Data))
	}
	probe("tsmem.store_ns", func() float64 { return storeNs(a, elems, procs) }, "ns")
	probe("tsmem.checkpoint_ns_per_word", func() float64 { return checkpointNsPerWord(arrs, procs) }, "ns")
	probe("pdtest.mark_verdict_ns", func() float64 {
		pd := pdtest.New(a, procs)
		defer pd.Release()
		return markVerdictNs(a, elems, procs, pd.MarkLoad, pd.MarkStore, func() bool {
			ok := pd.AnalyzeQuiet(elems).DOALL
			pd.Reset()
			return ok
		})
	}, "ns")
	probe("sig.mark_verdict_ns", func() float64 {
		sg := sig.New(procs, []*whilepar.Array{a}, sig.Config{})
		defer sg.Release()
		return markVerdictNs(a, elems, procs, sg.MarkLoad, sg.MarkStore, func() bool {
			// A flag here is a hash-aliasing false positive, which the
			// tier allows (the strip re-runs under Tier 0): timed, not
			// failed.
			_ = sg.Conflict()
			sg.Reset()
			return true
		})
	}, "ns")

	probe("genrec.ns_per_node", func() float64 {
		if listNodes > 0 {
			return float64(listBusy.Nanoseconds()) / float64(listNodes)
		}
		return general3PerNode(rand.New(rand.NewSource(seed)), 16384, 40, procs)
	}, "ns")

	prog := programProbeCase(seed, cases)
	probe("frontend.compile_us", func() float64 {
		return float64(timeRounds(func() time.Duration {
			t0 := time.Now()
			if _, err := prog.source.compile(prog.fresh()); err != nil {
				panic(err)
			}
			return time.Since(t0)
		}).Nanoseconds()) / 1e3
	}, "us")
	probe("frontend.interp_ns_per_iter", func() float64 {
		work := prog.fresh()
		p, err := prog.source.compile(work)
		if err != nil {
			panic(err)
		}
		var valid int
		d := timeRounds(func() time.Duration {
			prog.reset(work)
			t0 := time.Now()
			rep, err := p.RunContext(ctx, whilepar.Options{Strategy: whilepar.StrategySequential})
			if err != nil {
				panic(err)
			}
			valid = rep.Valid
			return time.Since(t0)
		})
		return frac(float64(d.Nanoseconds()), float64(valid))
	}, "ns")
	return out
}

// barrierRT is the round trip of an empty parallel region on pool, in
// microseconds; it closes the pool.
func barrierRT(p *sched.Pool) float64 {
	defer p.Close()
	const regions = 2000
	d := timeRounds(func() time.Duration {
		t0 := time.Now()
		for r := 0; r < regions; r++ {
			if err := p.Run(func(int) {}); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})
	return float64(d.Nanoseconds()) / regions / 1e3
}

// doallPerIter runs the case's body untracked as a sched DOALL on an
// owned pool (Stealing, as the tuned engines schedule clean loops).
func doallPerIter(c *loopCase, arrs []*whilepar.Array, procs int) float64 {
	pool := sched.NewPool(procs)
	defer pool.Close()
	var executed int
	d := timeRounds(func() time.Duration {
		c.reset(arrs)
		t0 := time.Now()
		res := sched.DOALL(c.n, sched.Options{Procs: procs, Schedule: sched.Stealing, Pool: pool},
			func(i, vpn int) sched.Control {
				it := whilepar.Iter{Index: i, VPN: vpn}
				if !c.bodyIter(&it, arrs, i) {
					return sched.Quit
				}
				return sched.Continue
			})
		executed = res.Executed
		return time.Since(t0)
	})
	return frac(float64(d.Nanoseconds()), float64(executed))
}

// storeNs is one tracked store through the time-stamped memory's
// Tracker, per element, over a strip of a.
func storeNs(a *whilepar.Array, elems, procs int) float64 {
	m := tsmem.NewSharded(procs, a)
	defer m.Release()
	tr := m.Tracker()
	d := timeRounds(func() time.Duration {
		m.Checkpoint()
		t0 := time.Now()
		for i := 0; i < elems; i++ {
			tr.Store(a, i, float64(i), i, 0)
		}
		d := time.Since(t0)
		if err := m.RestoreAll(); err != nil {
			panic(err)
		}
		return d
	})
	return float64(d.Nanoseconds()) / float64(elems)
}

// checkpointNsPerWord is the checkpoint (the paper's Tb) of every array
// of the case, per word.
func checkpointNsPerWord(arrs []*whilepar.Array, procs int) float64 {
	m := tsmem.NewSharded(procs, arrs...)
	defer m.Release()
	words := 0
	for _, a := range arrs {
		words += len(a.Data)
	}
	d := timeRounds(func() time.Duration {
		t0 := time.Now()
		m.Checkpoint()
		d := time.Since(t0)
		m.Commit()
		return d
	})
	return float64(d.Nanoseconds()) / float64(words)
}

// markVerdictNs marks a load and a store per element over a strip, each
// 64-element block on the next worker (an aligned Stealing strip), then
// renders the verdict; per element.  A flagged disjoint strip is a
// validator defect, not a timing.
func markVerdictNs(a *whilepar.Array, elems, procs int,
	markLoad, markStore func(a *whilepar.Array, idx, iter, vpn int), verdict func() bool) float64 {
	const block = 1 << sig.DefaultBlockShift
	d := timeRounds(func() time.Duration {
		t0 := time.Now()
		vpn := 0
		for lo := 0; lo < elems; lo += block {
			for i := lo; i < min(lo+block, elems); i++ {
				markLoad(a, i, i, vpn)
				markStore(a, i, i, vpn)
			}
			if vpn++; vpn == procs {
				vpn = 0
			}
		}
		if !verdict() {
			panic("perfbench: validator flagged a disjoint strip")
		}
		return time.Since(t0)
	})
	return float64(d.Nanoseconds()) / float64(elems)
}

// general3PerNode times a General-3 traversal of an n-node list with the
// workloads' kernel, per node.
func general3PerNode(rng *rand.Rand, n, work, procs int) float64 {
	vals := seededValues(rng, n)
	head := whilepar.BuildList(n, func(i int) (float64, float64) { return vals[i], 1 })
	out := make([]float64, n)
	var valid int
	d := timeRounds(func() time.Duration {
		t0 := time.Now()
		res := genrec.General3(head, func(it *whilepar.Iter, nd *whilepar.Node) bool {
			out[it.Index] = spin(nd.Val, work)
			return true
		}, genrec.Config{Procs: procs})
		valid = res.Valid
		return time.Since(t0)
	})
	return frac(float64(d.Nanoseconds()), float64(valid))
}

// programProbeCase is the workload's first .while case, or a seeded
// TRACK FPTRAK case when the workload runs none.
func programProbeCase(seed int64, cases []*loopCase) *loopCase {
	for _, c := range cases {
		if c.source != nil {
			return c
		}
	}
	c := trackCase("probe", rand.New(rand.NewSource(seed)), 4096, 10, 0.93)
	return c
}
