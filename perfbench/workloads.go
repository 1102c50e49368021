package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"whilepar"
	"whilepar/internal/autotune"
)

// The case grids below are fixed; the seed draws everything inside a
// case (input values, permutations, exit and dependence positions, the
// trip fraction within its band).  Keeping the shapes fixed keeps the
// operation mix, and so the latency quantiles, comparable across seeds.
// An odd number of cases keeps the pooled median and p90 inside one
// case's samples instead of on the edge between two.

// jitter draws a trip fraction within ±0.004 of trip: the bands stay
// clear of the 0.95 trip fraction at which autotune switches to the
// Stealing schedule and may grant Tier 2.
func jitter(rng *rand.Rand, trip float64) float64 {
	return trip + (rng.Float64()-0.5)*0.008
}

// scaled divides an iteration count for the small self-test runs.
func scaled(n, scale int) int {
	if n/scale < 256 {
		return 256
	}
	return n / scale
}

// stripsCases is the spec-strips grid: iteration counts 4K–64K, 1–16
// elements written per iteration (A from 32 KiB to 8 MiB, four times
// the 2 MiB per-core L2), body cost from ~0.1 to ~2 µs, trip fractions
// from 0.86 to 0.99, and two cases carrying a late dependence.
func stripsCases(seed int64, scale int) []*loopCase {
	rng := rand.New(rand.NewSource(seed))
	grid := []struct {
		n, w, work int
		trip       float64
		dep        bool
	}{
		{4096, 1, 20, 0.86, false},
		{8192, 2, 60, 0.90, false},
		{16384, 1, 100, 0.97, false},
		{4096, 8, 200, 0.985, false},
		{32768, 4, 30, 0.88, true},
		{16384, 16, 40, 0.975, false},
		{65536, 1, 15, 0.99, false},
		{8192, 4, 300, 0.96, false},
		{32768, 8, 60, 0.92, false},
		{65536, 16, 20, 0.98, false},
		{16384, 2, 150, 0.87, true},
		{4096, 16, 400, 0.99, false},
		{32768, 2, 80, 0.965, false},
	}
	cases := make([]*loopCase, len(grid))
	for i, g := range grid {
		cases[i] = stripCase(fmt.Sprintf("strip/%02d", i), rng, scaled(g.n, scale), g.w, g.work, jitter(rng, g.trip), g.dep)
	}
	return cases
}

// shapesCases is the shapes grid: loops the shadow machinery should
// leave alone (DOALL, prefix, list, a chain autotune must learn to run
// sequentially) plus two interpreted .while programs.
func shapesCases(seed int64, scale int) []*loopCase {
	rng := rand.New(rand.NewSource(seed))
	s := func(n int) int { return scaled(n, scale) }
	return []*loopCase{
		doallCase("doall/00", rng, s(16384), 50, jitter(rng, 0.93)),
		doallCase("doall/01", rng, s(65536), 10, jitter(rng, 0.90)),
		doallCase("doall/02", rng, s(4096), 400, jitter(rng, 0.99)),
		assocCase("assoc/00", rng, s(16384), 40, jitter(rng, 0.90)),
		assocCase("assoc/01", rng, s(65536), 10, jitter(rng, 0.97)),
		listCase("list/00", rng, s(16384), 40, whilepar.AutoList),
		listCase("list/01", rng, s(8192), 100, whilepar.General1),
		listCase("list/02", rng, s(32768), 20, whilepar.General2),
		chainCase("chain/00", rng, s(8192), 50, jitter(rng, 0.93)),
		chainCase("chain/01", rng, s(32768), 10, jitter(rng, 0.90)),
		trackCase("track/00", rng, s(4096), 10, jitter(rng, 0.93)),
		trackCase("track/01", rng, s(8192), 5, jitter(rng, 0.97)),
		spiceCase("spice/00", rng, s(4096), s(1024), 10, jitter(rng, 0.90)),
	}
}

// serveCases are the native job bodies of serve-mixed: strip
// speculation, QUIT search and list traversal.
func serveCases(seed int64, scale int) []*loopCase {
	rng := rand.New(rand.NewSource(seed))
	s := func(n int) int { return scaled(n, scale) }
	return []*loopCase{
		stripCase("strip/00", rng, s(4096), 1, 40, jitter(rng, 0.90), false),
		stripCase("strip/01", rng, s(8192), 2, 60, jitter(rng, 0.97), false),
		stripCase("strip/02", rng, s(16384), 1, 30, jitter(rng, 0.985), false),
		stripCase("strip/03", rng, s(8192), 4, 100, jitter(rng, 0.88), true),
		stripCase("strip/04", rng, s(4096), 8, 80, jitter(rng, 0.96), false),
		searchCase("search/00", rng, s(32768), 20, jitter(rng, 0.60)),
		searchCase("search/01", rng, s(16384), 60, jitter(rng, 0.90)),
		searchCase("search/02", rng, s(65536), 10, jitter(rng, 0.80)),
		listCase("list/00", rng, s(8192), 30, whilepar.AutoList),
		listCase("list/01", rng, s(16384), 15, whilepar.AutoList),
		listCase("list/02", rng, s(4096), 80, whilepar.AutoList),
	}
}

// refReps is how many runs of the plain-Go loop the reference time of
// a case is the median of.
const refReps = 3

// prepareAll computes every case's reference, reusing prev (the same
// cases from an earlier set-up of the same seed) where it matches.
func prepareAll(cases, prev []*loopCase, rec *spanRec) {
	sp := rec.begin(0, 0, "ref.seq")
	defer sp.end()
	for i, c := range cases {
		var p *loopCase
		if i < len(prev) {
			p = prev[i]
		}
		c.prepare(refReps, p)
	}
}

// warmRuns is how often set-up runs each loop key: past the clean-run
// streak that earns Tier 2, so the tier ladder has been climbed (where
// it can be) before timing starts.
const warmRuns = autotune.Tier2Streak + 2

// single is the single-caller harness of spec-strips and shapes: one
// goroutine calls the facade with defaulted Options and one warm
// ProfileStore, a Key per case.
type single struct {
	cases []*loopCase
	work  [][]*whilepar.Array // each case's working arrays, reset per op
	store *whilepar.ProfileStore
	rng   *rand.Rand
}

// setupSingle builds the cases, computes their references and warms the
// profile store.  It returns the set-up time, which excludes the
// reference computation.
func setupSingle(build func(seed int64, scale int) []*loopCase, seed int64, scale int, prev []*loopCase, rec *spanRec, t *tally) (*single, time.Duration, error) {
	var setup time.Duration
	t0 := time.Now()
	w := &single{cases: build(seed, scale), store: whilepar.NewProfileStore(),
		rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	w.work = make([][]*whilepar.Array, len(w.cases))
	for i, c := range w.cases {
		w.work[i] = c.fresh()
		if c.bind != nil {
			sp := rec.begin(0, 0, "frontend.compile")
			err := c.bind(w.work[i])
			sp.end()
			if err != nil {
				return nil, 0, fmt.Errorf("%s: compile: %w", c.key, err)
			}
		}
	}
	setup += time.Since(t0)

	prepareAll(w.cases, prev, rec)

	t0 = time.Now()
	for r := 0; r < warmRuns; r++ {
		for i := range w.cases {
			w.op(context.Background(), i, nil, false, t)
		}
	}
	setup += time.Since(t0)
	return w, setup, nil
}

// op runs and checks one operation of case i, recording it in t.
// Traced operations carry a Metrics accumulator and a ChromeTracer.
func (w *single) op(ctx context.Context, i int, rec *spanRec, traced bool, t *tally) {
	c, arrs := w.cases[i], w.work[i]
	c.reset(arrs)
	opt := whilepar.Options{Profiles: w.store, Key: c.key}
	var ct *whilepar.ChromeTracer
	var created time.Time
	if traced {
		opt.Metrics = whilepar.NewMetrics()
		created = time.Now()
		ct = whilepar.NewChromeTracer()
		opt.Tracer = ct
	}
	opID := rec.newOp()
	sp := rec.begin(opID, 0, "op:"+c.key)
	t0 := time.Now()
	rep, err := c.exec(ctx, opt, arrs, -1)
	lat := time.Since(t0)
	sp.end()
	if traced {
		rec.keepLibrary(opID, created, ct)
	}
	var bad error
	if err != nil {
		bad = fmt.Errorf("%s: %w", c.key, err)
	} else {
		bad = c.check(rep, arrs)
	}
	t.add(c, &rep, lat, bad)
}

// windowLen is the operation time of one measurement window.
const windowLen = time.Second

// measure runs operations for d, in seeded rounds that visit every case
// once in a random order, so every case gets the same share of the run.
// Whole rounds make up windows of at least windowLen (or d) of
// operation time; after each window every case's plain-Go loop is timed
// once, off the operation clock.
func (w *single) measure(ctx context.Context, d time.Duration, rec *spanRec, traced bool) *tally {
	t := newTally()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		start := t.busy
		for t.busy-start < min(windowLen, d) {
			for _, i := range w.rng.Perm(len(w.cases)) {
				w.op(ctx, i, rec, traced, t)
			}
		}
		sampleRefs(w.cases, rec)
		t.closeWindow(t.busy - start)
	}
	return t
}
