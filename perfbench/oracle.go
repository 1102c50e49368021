package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"whilepar"
)

// loopCase is one seeded loop instance: its pristine inputs, the
// library call under test, and the benchmark's own plain-Go sequential
// loop over the same inputs, which supplies the expected outputs.
//
// arrays[k] is the k-th managed array the loop may touch (written or
// read); every one of them is compared bit for bit after each operation,
// including the region past the exit, so overshoot that was not undone
// and stray writes both show.
type loopCase struct {
	key  string // profile key and trace label
	kind string // strip, search, list, doall, assoc, chain, track, spice

	init [][]float64 // pristine contents of every array
	// exec runs the loop through the library over arrs (fresh or reset
	// copies of init).  A panicAt >= 0 makes the body panic at that
	// iteration; -1 never panics.
	exec func(ctx context.Context, opt whilepar.Options, arrs []*whilepar.Array, panicAt int) (whilepar.Report, error)
	// ref is the plain-Go sequential loop: it runs at most limit
	// iterations over the slices and returns the valid iteration count.
	// It never calls into the library.
	ref func(arrs [][]float64, limit int) int
	// bodyIter runs iteration i of the loop body directly through an
	// Iter, for the layer probes; nil when the loop has no closed-form
	// dispatcher.
	bodyIter func(it *whilepar.Iter, arrs []*whilepar.Array, i int) bool

	// bind, when set, attaches the case to the working arrays it will
	// run on (the .while cases compile against them); source is the
	// program text behind such a case.
	bind   func(arrs []*whilepar.Array) error
	source *program

	n int // iteration-space bound (Loop.Max)

	want      [][]float64 // reference final contents
	wantValid int
	seqNs     float64 // median wall time of ref over the full loop, at set-up

	// lastNs is the latest ref timing of the measured phase, taken right
	// after a window of operations on scratch copies of the inputs, so
	// the sequential baseline sees the same machine as the operations it
	// is compared with.
	lastNs  float64
	scratch [][]float64
}

// sampleRef times one full run of the plain-Go loop into lastNs.  Not
// safe for concurrent use: callers sample between operations.
func (c *loopCase) sampleRef() {
	if c.scratch == nil {
		c.scratch = c.copyInit()
	} else {
		for k, src := range c.init {
			copy(c.scratch[k], src)
		}
	}
	t0 := time.Now()
	c.ref(c.scratch, c.n)
	c.lastNs = float64(time.Since(t0).Nanoseconds())
}

// sampleRefs times every case's plain-Go loop once.
func sampleRefs(cases []*loopCase, rec *spanRec) {
	sp := rec.begin(0, 0, "ref.seq")
	defer sp.end()
	for _, c := range cases {
		c.sampleRef()
	}
}

// names of the checked arrays, for error messages.
func arrayName(k int) string { return fmt.Sprintf("array %d", k) }

// fresh returns new managed arrays holding copies of the inputs.
func (c *loopCase) fresh() []*whilepar.Array {
	arrs := make([]*whilepar.Array, len(c.init))
	for k, src := range c.init {
		arrs[k] = whilepar.FromSlice(arrayName(k), append([]float64(nil), src...))
	}
	return arrs
}

// reset copies the inputs back into arrs.
func (c *loopCase) reset(arrs []*whilepar.Array) {
	for k, src := range c.init {
		copy(arrs[k].Data, src)
	}
}

// copyInit returns plain slices holding copies of the inputs.
func (c *loopCase) copyInit() [][]float64 {
	out := make([][]float64, len(c.init))
	for k, src := range c.init {
		out[k] = append([]float64(nil), src...)
	}
	return out
}

// prepare computes the expected outputs and times the plain-Go loop:
// the median of reps runs, each from a fresh copy of the inputs.  A case
// already prepared from identical inputs (the same seed) is copied
// instead, so repeated set-ups do not re-time the reference.
func (c *loopCase) prepare(reps int, prev *loopCase) {
	if prev != nil && prev.key == c.key && sameBits(prev.init, c.init) {
		c.want, c.wantValid, c.seqNs = prev.want, prev.wantValid, prev.seqNs
		return
	}
	c.want = c.copyInit()
	c.wantValid = c.ref(c.want, c.n)
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		w := c.copyInit()
		t0 := time.Now()
		v := c.ref(w, c.n)
		times = append(times, float64(time.Since(t0).Nanoseconds()))
		if v != c.wantValid || !sameBits(w, c.want) {
			panic(fmt.Sprintf("perfbench: reference loop %s is not deterministic", c.key))
		}
	}
	c.seqNs = median(times)
}

// check compares a completed operation with the reference: Valid, and
// every element of every array.
func (c *loopCase) check(rep whilepar.Report, arrs []*whilepar.Array) error {
	if rep.Valid != c.wantValid {
		return fmt.Errorf("%s: Valid %d, sequential loop gives %d", c.key, rep.Valid, c.wantValid)
	}
	return compareArrays(c.key, arrs, c.want)
}

// checkPrefix compares an interrupted operation (deadline, cancel,
// panic) with the sequential loop stopped after rep.Valid iterations:
// whatever the library reports as committed must be exactly that prefix,
// with everything past it restored.
func (c *loopCase) checkPrefix(valid int, arrs []*whilepar.Array) error {
	if valid < 0 || valid > c.wantValid {
		return fmt.Errorf("%s: interrupted Valid %d outside [0, %d]", c.key, valid, c.wantValid)
	}
	want := c.copyInit()
	if got := c.ref(want, valid); got != valid {
		return fmt.Errorf("%s: sequential prefix of %d stopped at %d", c.key, valid, got)
	}
	return compareArrays(c.key, arrs, want)
}

func compareArrays(key string, arrs []*whilepar.Array, want [][]float64) error {
	if len(arrs) != len(want) {
		return fmt.Errorf("%s: %d arrays, want %d", key, len(arrs), len(want))
	}
	for k, a := range arrs {
		if len(a.Data) != len(want[k]) {
			return fmt.Errorf("%s: %s has %d elements, want %d", key, arrayName(k), len(a.Data), len(want[k]))
		}
		for i, v := range a.Data {
			if math.Float64bits(v) != math.Float64bits(want[k][i]) {
				return fmt.Errorf("%s: %s[%d] = %v, sequential loop gives %v", key, arrayName(k), i, v, want[k][i])
			}
		}
	}
	return nil
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			if math.Float64bits(a[k][i]) != math.Float64bits(b[k][i]) {
				return false
			}
		}
	}
	return true
}

// spin is the compute kernel every loop body and its reference share:
// work dependent divisions, about 4 ns each on a current x86 core.
func spin(x float64, work int) float64 {
	v := x + 1
	for k := 0; k < work; k++ {
		v += 1 / v
	}
	return v
}

// mix folds a fresh value into an element; shared by bodies and
// references so both round identically.
func mix(old, v float64, j int) float64 {
	return old*0.5 + v + float64(j)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
