package main

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"whilepar"
	"whilepar/internal/frontend"
)

// trackSrc is the TRACK FPTRAK Loop 300 shape of
// cmd/whileclass/testdata: a conditional error exit and subscripted
// subscripts (state is unanalyzable, so it goes to the PD test).
const trackSrc = `
while (i < n) {
    err = residual(obs[i], pred[i])
    if (err > limit) exit
    state[idx[i]] = smooth(state[idx[i]], obs[i])
    i = i + 1
}`

// spiceSrc is the SPICE LOAD Loop 40 shape with the device list replaced
// by its index (the list-walking original is outside the interpreter's
// runnable subset): each device stamps its own slot from the voltages of
// its two nodes, and an out-of-range conductance ends the loop.
const spiceSrc = `
while (j < n) {
    g = geq(j, v[na[j]], v[nb[j]])
    if (g > gmax) exit
    stamp[j] = g
    j = j + 1
}`

// program is a .while loop bound to the benchmark's own seeded
// environment: names lists the Env arrays in the case's array order.
type program struct {
	src     string
	names   []string
	scalars map[string]float64
	funcs   map[string]func([]float64) float64
	maxIter int
}

// compile parses, analyzes and compiles the program against arrs.
func (p *program) compile(arrs []*whilepar.Array) (*frontend.Program, error) {
	ast, err := frontend.Parse(p.src)
	if err != nil {
		return nil, err
	}
	an, err := frontend.Analyze(ast)
	if err != nil {
		return nil, err
	}
	env := frontend.NewEnv()
	for k, name := range p.names {
		env.Arrays[name] = arrs[k]
	}
	for name, v := range p.scalars {
		env.Scalars[name] = v
	}
	for name, f := range p.funcs {
		env.Funcs[name] = f
	}
	return frontend.Compile(ast, an, env, p.maxIter)
}

// programCase wires a compiled program into a loopCase: the program is
// bound to the case's working arrays once, at set-up (bind), so these
// cases run only on the single-caller path.
func programCase(key, kind string, p *program, init [][]float64, ref func([][]float64, int) int) *loopCase {
	c := &loopCase{key: key, kind: kind, n: p.maxIter, init: init, ref: ref}
	var prog *frontend.Program
	var bound []*whilepar.Array
	c.bind = func(arrs []*whilepar.Array) error {
		var err error
		prog, err = p.compile(arrs)
		bound = arrs
		return err
	}
	c.exec = func(ctx context.Context, opt whilepar.Options, arrs []*whilepar.Array, panicAt int) (whilepar.Report, error) {
		if prog == nil || len(arrs) == 0 || arrs[0] != bound[0] || panicAt >= 0 {
			return whilepar.Report{}, errors.New("perfbench: .while case run outside its bound environment")
		}
		return prog.RunContext(ctx, opt)
	}
	c.source = p
	return c
}

func permFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, p := range rng.Perm(n) {
		out[i] = float64(p)
	}
	return out
}

// trackCase builds TRACK FPTRAK over n observations with the error exit
// at fraction trip.
//
// arrays: 0 = obs, 1 = pred, 2 = idx, 3 = state.
func trackCase(key string, rng *rand.Rand, n, work int, trip float64) *loopCase {
	exit := exitAt(n, trip)
	obs := seededInputs(rng, n, n)
	pred := seededInputs(rng, n, exit)
	residual := func(a []float64) float64 { return spin(math.Abs(a[0]-a[1]), work) }
	smooth := func(a []float64) float64 { return mix(a[0], a[1], 0) }
	p := &program{src: trackSrc, names: []string{"obs", "pred", "idx", "state"},
		scalars: map[string]float64{"n": float64(n), "limit": exitAbove},
		funcs:   map[string]func([]float64) float64{"residual": residual, "smooth": smooth},
		maxIter: n}
	init := [][]float64{obs, pred, permFloats(rng, n), seededValues(rng, n)}
	ref := func(arrs [][]float64, limit int) int {
		obs, pred, idx, state := arrs[0], arrs[1], arrs[2], arrs[3]
		for i := 0; i < limit && i < n; i++ {
			if residual([]float64{obs[i], pred[i]}) > exitAbove {
				return i
			}
			k := int(idx[i])
			state[k] = smooth([]float64{state[k], obs[i]})
		}
		return min(limit, n)
	}
	return programCase(key, "track", p, init, ref)
}

// spiceCase builds SPICE LOAD over n devices on nv circuit nodes; the
// device at fraction trip is wired to a node whose voltage drives the
// conductance past gmax.
//
// arrays: 0 = v, 1 = na, 2 = nb, 3 = stamp.
func spiceCase(key string, rng *rand.Rand, n, nv, work int, trip float64) *loopCase {
	exit := exitAt(n, trip)
	v := seededInputs(rng, nv+1, nv) // v[nv] is the faulty node
	na := make([]float64, n)
	nb := make([]float64, n)
	for j := range na {
		na[j] = float64(rng.Intn(nv))
		nb[j] = float64(rng.Intn(nv))
	}
	na[exit] = float64(nv)
	geq := func(a []float64) float64 { return spin(math.Abs(a[1]-a[2]), work) }
	p := &program{src: spiceSrc, names: []string{"v", "na", "nb", "stamp"},
		scalars: map[string]float64{"n": float64(n), "gmax": exitAbove},
		funcs:   map[string]func([]float64) float64{"geq": geq},
		maxIter: n}
	init := [][]float64{v, na, nb, seededValues(rng, n)}
	ref := func(arrs [][]float64, limit int) int {
		v, na, nb, stamp := arrs[0], arrs[1], arrs[2], arrs[3]
		for j := 0; j < limit && j < n; j++ {
			g := geq([]float64{float64(j), v[int(na[j])], v[int(nb[j])]})
			if g > exitAbove {
				return j
			}
			stamp[j] = g
		}
		return min(limit, n)
	}
	return programCase(key, "spice", p, init, ref)
}
