package main

import (
	"context"
	"fmt"
	"math/rand"

	"whilepar"
	"whilepar/internal/core"
)

// sentinel is planted in an input array at the exit iteration: spin of it
// stays far above exitAbove, while spin of every ordinary input (in
// [0.5, 1.5)) stays far below, so the remainder-variant exit fires at
// exactly that iteration.
const (
	sentinel  = 1e300
	exitAbove = 1e200
)

// seededInputs returns n values in [0.5, 1.5) with the sentinel at exit
// (exit >= n means the loop runs to its bound).
func seededInputs(rng *rand.Rand, n, exit int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.5 + rng.Float64()
	}
	if exit < n {
		xs[exit] = sentinel
	}
	return xs
}

func seededValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// exitAt places the exit at fraction trip of n.
func exitAt(n int, trip float64) int {
	e := int(trip * float64(n))
	if e >= n {
		e = n - 1
	}
	return e
}

func checkPanic(i, panicAt int) {
	if i == panicAt {
		panic(fmt.Sprintf("perfbench: injected panic at iteration %d", i))
	}
}

var rvInduction = whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV}

// stripCase is the spec-strips loop: an RV-terminated induction loop
// whose iteration d rewrites its own w-element block of A and one
// element of B through a seeded permutation (an access pattern a
// compiler cannot analyze, so B goes to the PD test).  With dep set, one
// late iteration reads the B element an earlier iteration wrote: a real
// cross-iteration dependence that speculation must detect and rewind.
//
// arrays: 0 = A (Shared), 1 = B (Shared+Tested), 2 = X (read-only input).
func stripCase(key string, rng *rand.Rand, n, w, work int, trip float64, dep bool) *loopCase {
	exit := exitAt(n, trip)
	perm := rng.Perm(n)
	depAt, depFrom := -1, -1
	if dep {
		depAt = exit*7/10 + rng.Intn(exit/50+1)
		depFrom = depAt - 1 - rng.Intn(32)
	}
	c := &loopCase{key: key, kind: "strip", n: n,
		init: [][]float64{seededValues(rng, n*w), seededValues(rng, n), seededInputs(rng, n, exit)}}
	src := func(d int) int {
		if d == depAt {
			return perm[depFrom]
		}
		return perm[d]
	}
	c.bodyIter = func(it *whilepar.Iter, arrs []*whilepar.Array, d int) bool {
		a, b, xs := arrs[0], arrs[1], arrs[2].Data
		v := spin(xs[d], work)
		if v > exitAbove {
			return false
		}
		base := d * w
		for j := 0; j < w; j++ {
			it.Store(a, base+j, mix(it.Load(a, base+j), v, j))
		}
		it.Store(b, perm[d], it.Load(b, src(d))+v)
		return true
	}
	c.ref = func(arrs [][]float64, limit int) int {
		a, b, xs := arrs[0], arrs[1], arrs[2]
		for d := 0; d < limit && d < n; d++ {
			v := spin(xs[d], work)
			if v > exitAbove {
				return d
			}
			base := d * w
			for j := 0; j < w; j++ {
				a[base+j] = mix(a[base+j], v, j)
			}
			b[perm[d]] = b[src(d)] + v
		}
		return min(limit, n)
	}
	c.exec = inductionExec(c, rvInduction, nil, func(arrs []*whilepar.Array) (shared, tested []*whilepar.Array) {
		return arrs[:2], arrs[1:2]
	})
	return c
}

// searchCase is a QUIT search: scan X for the first element whose
// kernel value crosses the threshold.  Nothing is written, so no
// speculation is needed; the DOALL stops issuing at the exit.
//
// arrays: 0 = X (read-only input).
func searchCase(key string, rng *rand.Rand, n, work int, trip float64) *loopCase {
	exit := exitAt(n, trip)
	c := &loopCase{key: key, kind: "search", n: n, init: [][]float64{seededInputs(rng, n, exit)}}
	c.bodyIter = func(it *whilepar.Iter, arrs []*whilepar.Array, d int) bool {
		return spin(arrs[0].Data[d], work) <= exitAbove
	}
	c.ref = func(arrs [][]float64, limit int) int {
		for d := 0; d < limit && d < n; d++ {
			if spin(arrs[0][d], work) > exitAbove {
				return d
			}
		}
		return min(limit, n)
	}
	c.exec = inductionExec(c, rvInduction, nil, nil)
	return c
}

// doallCase is a remainder-invariant induction loop: a threshold on the
// counter ends it, so it cannot overshoot and runs as a plain DOALL.
//
// arrays: 0 = A (Shared), 1 = X (read-only input).
func doallCase(key string, rng *rand.Rand, n, work int, trip float64) *loopCase {
	limit := exitAt(n, trip)
	c := &loopCase{key: key, kind: "doall", n: n,
		init: [][]float64{seededValues(rng, n), seededInputs(rng, n, n)}}
	c.bodyIter = func(it *whilepar.Iter, arrs []*whilepar.Array, d int) bool {
		a := arrs[0]
		it.Store(a, d, mix(it.Load(a, d), spin(arrs[1].Data[d], work), 0))
		return true
	}
	c.ref = func(arrs [][]float64, lim int) int {
		a, xs := arrs[0], arrs[1]
		d := 0
		for ; d < lim && d < n && d < limit; d++ {
			a[d] = mix(a[d], spin(xs[d], work), 0)
		}
		return d
	}
	class := whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RI, ThresholdOnMonotonic: true}
	c.exec = inductionExec(c, class, func(d int) bool { return d < limit },
		func(arrs []*whilepar.Array) (shared, tested []*whilepar.Array) { return arrs[:1], nil })
	return c
}

// chainCase is fully loop-carried: iteration d reads what d-1 wrote.
// Speculation always fails on it, so the selector must learn to run it
// sequentially.
//
// arrays: 0 = A (Shared+Tested), 1 = X (read-only input).
func chainCase(key string, rng *rand.Rand, n, work int, trip float64) *loopCase {
	exit := exitAt(n, trip)
	c := &loopCase{key: key, kind: "chain", n: n,
		init: [][]float64{seededValues(rng, n), seededInputs(rng, n, exit)}}
	c.bodyIter = func(it *whilepar.Iter, arrs []*whilepar.Array, d int) bool {
		a := arrs[0]
		v := spin(arrs[1].Data[d], work)
		if v > exitAbove {
			return false
		}
		prev := 0.0
		if d > 0 {
			prev = it.Load(a, d-1)
		}
		it.Store(a, d, mix(prev, v, 0))
		return true
	}
	c.ref = func(arrs [][]float64, limit int) int {
		a, xs := arrs[0], arrs[1]
		for d := 0; d < limit && d < n; d++ {
			v := spin(xs[d], work)
			if v > exitAbove {
				return d
			}
			prev := 0.0
			if d > 0 {
				prev = a[d-1]
			}
			a[d] = mix(prev, v, 0)
		}
		return min(limit, n)
	}
	c.exec = inductionExec(c, rvInduction, nil, func(arrs []*whilepar.Array) (shared, tested []*whilepar.Array) {
		return arrs[:1], arrs[:1]
	})
	return c
}

// inductionExec builds the facade call for a closed-form induction loop
// over c.bodyIter.  annotate names the Shared and Tested arrays (nil:
// none).
func inductionExec(c *loopCase, class whilepar.Class, cond func(int) bool,
	annotate func(arrs []*whilepar.Array) (shared, tested []*whilepar.Array)) func(context.Context, whilepar.Options, []*whilepar.Array, int) (whilepar.Report, error) {
	return func(ctx context.Context, opt whilepar.Options, arrs []*whilepar.Array, panicAt int) (whilepar.Report, error) {
		if annotate != nil {
			opt.Shared, opt.Tested = annotate(arrs)
		}
		loop := &whilepar.IntLoop{
			Class: class,
			Disp:  whilepar.IntInduction{C: 1},
			Cond:  cond,
			Body: func(it *whilepar.Iter, d int) bool {
				checkPanic(d, panicAt)
				return c.bodyIter(it, arrs, d)
			},
			Max: c.n,
		}
		return whilepar.RunContext(ctx, loop, opt)
	}
}

// assocCase is an associative recurrence x(i) = A*x(i-1) + B ended by a
// threshold on x: the dispatcher terms come from the parallel prefix and
// the remainder runs as a DOALL.  The coefficients are integers,
// so every term is exact in float64 and the prefix's reassociation
// cannot change a bit (see NOTES.md).
//
// arrays: 0 = Out (Shared).
func assocCase(key string, rng *rand.Rand, n, work int, trip float64) *loopCase {
	aff := whilepar.Affine{A: 1, B: float64(1 + rng.Intn(7)), X0: float64(rng.Intn(100))}
	limit := aff.X0 + aff.B*float64(exitAt(n, trip))
	cond := func(x float64) bool { return x < limit }
	c := &loopCase{key: key, kind: "assoc", n: n, init: [][]float64{seededValues(rng, n)}}
	c.ref = func(arrs [][]float64, lim int) int {
		out := arrs[0]
		x := aff.X0
		i := 0
		for ; i < lim && i < n; i++ {
			if !cond(x) {
				return i
			}
			out[i] = mix(out[i], spin(x*1e-6, work), 0)
			x = aff.Next(x)
		}
		return i
	}
	c.exec = func(ctx context.Context, opt whilepar.Options, arrs []*whilepar.Array, panicAt int) (whilepar.Report, error) {
		out := arrs[0]
		opt.Shared = arrs[:1]
		loop := &whilepar.FloatLoop{
			Class: whilepar.Class{Dispatcher: whilepar.AssociativeRecurrence, Terminator: whilepar.RI},
			Disp:  aff,
			Cond:  cond,
			Body: func(it *whilepar.Iter, x float64) bool {
				checkPanic(it.Index, panicAt)
				it.Store(out, it.Index, mix(it.Load(out, it.Index), spin(x*1e-6, work), 0))
				return true
			},
			Max: n,
		}
		return whilepar.RunContext(ctx, loop, opt)
	}
	return c
}

// listCase traverses a seeded linked list to its end (a general
// recurrence with a remainder-invariant terminator), writing one output
// per node.
//
// arrays: 0 = Out (Shared).
func listCase(key string, rng *rand.Rand, n, work int, method core.ListMethod) *loopCase {
	vals := seededValues(rng, n)
	head := whilepar.BuildList(n, func(i int) (float64, float64) { return vals[i], 1 })
	c := &loopCase{key: key, kind: "list", n: n, init: [][]float64{seededValues(rng, n)}}
	c.ref = func(arrs [][]float64, limit int) int {
		out := arrs[0]
		i := 0
		for p := head; p != nil && i < limit; p = p.Next {
			out[i] = mix(out[i], spin(p.Val, work), 0)
			i++
		}
		return i
	}
	c.exec = func(ctx context.Context, opt whilepar.Options, arrs []*whilepar.Array, panicAt int) (whilepar.Report, error) {
		out := arrs[0]
		opt.Shared = arrs[:1]
		opt.ListMethod = method
		return whilepar.RunContext(ctx, whilepar.ListLoop{
			Head:  head,
			Class: whilepar.Class{Dispatcher: whilepar.GeneralRecurrence, Terminator: whilepar.RI},
			Body: func(it *whilepar.Iter, nd *whilepar.Node) bool {
				checkPanic(it.Index, panicAt)
				it.Store(out, it.Index, mix(it.Load(out, it.Index), spin(nd.Val, work), 0))
				return true
			},
		}, opt)
	}
	return c
}
