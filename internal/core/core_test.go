package core

import (
	"runtime"
	"strings"
	"testing"

	"whilepar/internal/costmodel"
	"whilepar/internal/induction"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/speculate"
)

func inductionLoop(a *mem.Array, exit, max int) *loopir.Loop[int] {
	return &loopir.Loop[int]{
		Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		Disp:  loopir.IntInduction{C: 1},
		Body: func(it *loopir.Iter, d int) bool {
			if d == exit {
				return false
			}
			it.Store(a, d, float64(d)+1)
			return true
		},
		Max: max,
	}
}

func TestRunInductionPlain(t *testing.T) {
	a := mem.NewArray("A", 64)
	l := inductionLoop(a, -1, 64)
	l.Class.Terminator = loopir.RI
	l.Class.ThresholdOnMonotonic = true
	rep, err := RunInduction(l, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 64 {
		t.Fatalf("report %+v", rep)
	}
}

func TestRunInductionSpeculative(t *testing.T) {
	a := mem.NewArray("A", 128)
	l := inductionLoop(a, 40, 128)
	rep, err := RunInduction(l, Options{
		Procs:           4,
		InductionMethod: induction.Induction1, // guarantees overshoot
		Shared:          []*mem.Array{a},
		Tested:          []*mem.Array{a},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 40 {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(rep.Strategy, "speculation") {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	// State identical to sequential.
	for i := 0; i < 128; i++ {
		want := 0.0
		if i < 40 {
			want = float64(i) + 1
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunInductionCostModelRejects(t *testing.T) {
	a := mem.NewArray("A", 16)
	l := inductionLoop(a, -1, 16)
	rep, err := RunInduction(l, Options{
		Procs:    4,
		Times:    costmodel.LoopTimes{Trem: 100, Trec: 1, Accesses: 10},
		MinIters: 1000,
		Stats:    seeded(3), // tiny predicted trip count
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel || rep.Strategy != "sequential (cost model)" {
		t.Fatalf("report %+v", rep)
	}
	if rep.Valid != 16 {
		t.Fatalf("sequential run wrong: %+v", rep)
	}
}

func seeded(n int) *costmodel.BranchStats {
	var b costmodel.BranchStats
	for i := 0; i < 10; i++ {
		b.Record(n)
	}
	return &b
}

func TestRunInductionRecordsStats(t *testing.T) {
	var stats costmodel.BranchStats
	a := mem.NewArray("A", 32)
	l := inductionLoop(a, 20, 32)
	if _, err := RunInduction(l, Options{Procs: 2, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Samples() != 1 {
		t.Fatalf("stats samples = %d", stats.Samples())
	}
	if ni, _ := stats.Estimate(); ni != 20 {
		t.Fatalf("recorded trip count %v", ni)
	}
}

func TestRunAssociative(t *testing.T) {
	// x: 1, 2, 4, ...; while x < 1000 -> 10 terms; body writes A[i]=x.
	a := mem.NewArray("A", 20)
	l := &loopir.Loop[float64]{
		Class: loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RI},
		Disp:  loopir.Affine{A: 2, B: 0, X0: 1},
		Cond:  func(x float64) bool { return x < 1000 },
		Body: func(it *loopir.Iter, x float64) bool {
			it.Store(a, it.Index, x)
			return true
		},
		Max: 20,
	}
	rep, err := RunAssociative(l, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 10 {
		t.Fatalf("report %+v", rep)
	}
	want := 1.0
	for i := 0; i < 10; i++ {
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
		want *= 2
	}
}

func TestRunAssociativeRejectsNonAffine(t *testing.T) {
	l := &loopir.Loop[float64]{
		Disp: loopir.Func[float64]{StartFn: func() float64 { return 0 }, NextFn: func(x float64) float64 { return x }},
		Body: func(*loopir.Iter, float64) bool { return true },
		Max:  4,
	}
	if _, err := RunAssociative(l, Options{}); err == nil {
		t.Fatal("non-affine dispatcher must be rejected")
	}
	l2 := &loopir.Loop[float64]{
		Disp: loopir.Affine{A: 1, B: 1},
		Body: func(*loopir.Iter, float64) bool { return true },
	}
	if _, err := RunAssociative(l2, Options{}); err == nil {
		t.Fatal("missing Max must be rejected")
	}
}

func TestRunAssociativeSpeculative(t *testing.T) {
	// RV exit at term index 6; shared array written per iteration.
	a := mem.NewArray("A", 32)
	l := &loopir.Loop[float64]{
		Class: loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RV},
		Disp:  loopir.Affine{A: 1, B: 1, X0: 0}, // x = 0,1,2,...
		Body: func(it *loopir.Iter, x float64) bool {
			if it.Index == 6 {
				return false
			}
			it.Store(a, it.Index, x*10)
			return true
		},
		Max: 32,
	}
	rep, err := RunAssociative(l, Options{Procs: 3, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 6 {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < 32; i++ {
		want := 0.0
		if i < 6 {
			want = float64(i) * 10
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunListAllMethods(t *testing.T) {
	for _, m := range []ListMethod{AutoList, General1, General2, General3} {
		n := 200
		a := mem.NewArray("A", n)
		head := list.Build(n, func(i int) (float64, float64) { return float64(i), 1 })
		rep, err := RunList(head, func(it *loopir.Iter, nd *list.Node) bool {
			it.Store(a, nd.Key, nd.Val*2)
			return true
		}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI}, Options{Procs: 4, ListMethod: m})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.UsedParallel || rep.Valid != n {
			t.Fatalf("%v: %+v", m, rep)
		}
		for i := 0; i < n; i++ {
			if a.Data[i] != float64(2*i) {
				t.Fatalf("%v: A[%d] = %v", m, i, a.Data[i])
			}
		}
	}
}

func TestRunListSpeculativeWithDependence(t *testing.T) {
	// Body has a flow dependence through A[0]: the PD test must fail
	// and the sequential re-execution must win.
	n := 30
	a := mem.NewArray("A", n)
	head := list.Build(n, nil)
	rep, err := RunList(head, func(it *loopir.Iter, nd *list.Node) bool {
		acc := it.Load(a, 0)
		it.Store(a, 0, acc+1)
		return true
	}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Options{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel {
		t.Fatalf("dependent loop kept parallel result: %+v", rep)
	}
	if a.Data[0] != float64(n) {
		t.Fatalf("A[0] = %v, want %d", a.Data[0], n)
	}
}

func TestRunListCostModelSequential(t *testing.T) {
	head := list.Build(10, nil)
	rep, err := RunList(head, func(*loopir.Iter, *list.Node) bool { return true },
		loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Options{Procs: 4, Times: costmodel.LoopTimes{Trem: 1, Trec: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel || rep.Valid != 10 {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(rep.Decision.Reason, "dispatcher") {
		t.Fatalf("reason = %q", rep.Decision.Reason)
	}
}

func TestListMethodString(t *testing.T) {
	if General1.String() != "General-1" || AutoList.String() != "General-3 (auto)" {
		t.Fatal("names wrong")
	}
}

func TestRunListRVExit(t *testing.T) {
	n := 100
	head := list.Build(n, nil)
	rep, err := RunList(head, func(it *loopir.Iter, nd *list.Node) bool {
		return nd.Key != 33
	}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RV},
		Options{Procs: 4, ListMethod: General3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 33 {
		t.Fatalf("report %+v", rep)
	}
}

func TestRunListDoacrossMethod(t *testing.T) {
	n := 250
	a := mem.NewArray("A", n)
	head := list.Build(n, func(i int) (float64, float64) { return float64(i), 1 })
	rep, err := RunList(head, func(it *loopir.Iter, nd *list.Node) bool {
		it.Store(a, nd.Key, nd.Val*5)
		return true
	}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Options{Procs: 4, ListMethod: DoacrossList})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || !rep.UsedParallel || rep.Strategy != "WHILE-DOACROSS" {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != float64(5*i) {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
	// RV exit through the pipeline.
	rep2, err := RunList(list.Build(n, nil), func(it *loopir.Iter, nd *list.Node) bool {
		return nd.Key != 77
	}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RV},
		Options{Procs: 4, ListMethod: DoacrossList})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Valid != 77 {
		t.Fatalf("RV exit: %+v", rep2)
	}
}

// Property: all four list strategies agree with each other and the
// sequential loop on result state, for random sizes and exits.
func TestAllListStrategiesAgree(t *testing.T) {
	methods := []ListMethod{General1, General2, General3, DoacrossList}
	for _, exit := range []int{-1, 0, 13, 101} {
		n := 120
		want := mem.NewArray("A", n)
		bound := n
		if exit >= 0 && exit < n {
			bound = exit
		}
		for i := 0; i < bound; i++ {
			want.Data[i] = float64(i + 1)
		}
		for _, m := range methods {
			a := mem.NewArray("A", n)
			head := list.Build(n, nil)
			rep, err := RunList(head, func(it *loopir.Iter, nd *list.Node) bool {
				if nd.Key == exit {
					return false
				}
				it.Store(a, nd.Key, float64(nd.Key+1))
				return true
			}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RV},
				// RV terminator: overshoot is possible (General-2's
				// static assignment in particular runs ahead), so the
				// speculation machinery must checkpoint and undo.
				Options{Procs: 5, ListMethod: m, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Valid != bound {
				t.Fatalf("%v exit=%d: Valid = %d, want %d", m, exit, rep.Valid, bound)
			}
			if !a.Equal(want) {
				t.Fatalf("%v exit=%d: state diverged", m, exit)
			}
		}
	}
}

func TestRunGeneralNumericRecognizesAffine(t *testing.T) {
	// An opaque closure that is secretly x' = 2x + 1: run-time
	// recognition must promote it to the parallel-prefix path.
	a := mem.NewArray("A", 32)
	l := &loopir.Loop[float64]{
		Class: loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Disp: loopir.Func[float64]{
			StartFn: func() float64 { return 1 },
			NextFn:  func(x float64) float64 { return 2*x + 1 },
		},
		Cond: func(x float64) bool { return x < 200 },
		Body: func(it *loopir.Iter, x float64) bool {
			it.Store(a, it.Index, x)
			return true
		},
		Max: 32,
	}
	want := loopir.LastValid(&loopir.Loop[float64]{
		Disp: l.Disp, Cond: l.Cond,
		Body: func(*loopir.Iter, float64) bool { return true }, Max: 32,
	})
	rep, err := RunGeneralNumeric(l, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Strategy, "recognized affine") {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	if rep.Valid != want {
		t.Fatalf("valid = %d, want %d", rep.Valid, want)
	}
	// Terms: 1, 3, 7, 15, 31, 63, 127 (< 200) -> 7 terms.
	if rep.Valid != 7 || a.Data[6] != 127 {
		t.Fatalf("terms wrong: valid=%d a[6]=%v", rep.Valid, a.Data[6])
	}
}

func TestRunGeneralNumericFallsBackToDistribution(t *testing.T) {
	// x' = x^2 + 1 is not affine: the naive distribution runs (and the
	// result still matches sequential).
	a := mem.NewArray("A", 8)
	mk := func() *loopir.Loop[float64] {
		return &loopir.Loop[float64]{
			Class: loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
			Disp: loopir.Func[float64]{
				StartFn: func() float64 { return 1 },
				NextFn:  func(x float64) float64 { return x*x + 1 },
			},
			Cond: func(x float64) bool { return x < 1000 },
			Body: func(it *loopir.Iter, x float64) bool {
				it.Store(a, it.Index, x)
				return true
			},
			Max: 8,
		}
	}
	rep, err := RunGeneralNumeric(mk(), Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Strategy, "naive distribution") {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	// Terms: 1, 2, 5, 26, 677 -> 5 valid.
	if rep.Valid != 5 || a.Data[4] != 677 {
		t.Fatalf("valid=%d a[4]=%v", rep.Valid, a.Data[4])
	}
	// Cost-model rejection path.
	rep2, err := RunGeneralNumeric(mk(), Options{Procs: 4, Times: costmodel.LoopTimes{Trem: 1, Trec: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.UsedParallel {
		t.Fatalf("dispatcher-dominated numeric loop accepted: %+v", rep2)
	}
}

func TestRunGeneralNumericRequiresMax(t *testing.T) {
	l := &loopir.Loop[float64]{
		Disp: loopir.Func[float64]{StartFn: func() float64 { return 0 }, NextFn: func(x float64) float64 { return x + 1 }},
		Body: func(*loopir.Iter, float64) bool { return true },
	}
	if _, err := RunGeneralNumeric(l, Options{}); err == nil {
		t.Fatal("missing Max must be rejected")
	}
}

func TestRunGeneralNumericAffineDispatcherDelegates(t *testing.T) {
	l := &loopir.Loop[float64]{
		Class: loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RI},
		Disp:  loopir.Affine{A: 1, B: 1, X0: 0},
		Cond:  func(x float64) bool { return x < 5 },
		Body:  func(*loopir.Iter, float64) bool { return true },
		Max:   100,
	}
	rep, err := RunGeneralNumeric(l, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 5 || !strings.Contains(rep.Strategy, "prefix") {
		t.Fatalf("%+v", rep)
	}
}

func TestRunInductionSparseUndo(t *testing.T) {
	n := 50_000
	a := mem.NewArray("A", n)
	l := &loopir.Loop[int]{
		Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		Disp:  loopir.IntInduction{C: 1},
		Body: func(it *loopir.Iter, d int) bool {
			if d == 150 {
				return false
			}
			it.Store(a, (d*251)%n, float64(d)) // sparse writes
			return true
		},
		Max: 400,
	}
	rep, err := RunInduction(l, Options{
		Procs:           4,
		InductionMethod: induction.Induction1,
		Shared:          []*mem.Array{a},
		Tested:          []*mem.Array{a},
		SparseUndo:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 150 {
		t.Fatalf("report %+v", rep)
	}
	// Only the 150 valid writes survive.
	written := 0
	for i := 0; i < n; i++ {
		if a.Data[i] != 0 {
			written++
		}
	}
	if written != 149 { // iteration 0 writes value 0 (indistinguishable from empty)
		t.Fatalf("surviving writes = %d, want 149", written)
	}
}

func TestRunInductionRunTwice(t *testing.T) {
	n := 256
	a := mem.NewArray("A", n)
	l := inductionLoop(a, 90, n)
	rep, err := RunInduction(l, Options{
		Procs:           4,
		InductionMethod: induction.Induction1,
		Shared:          []*mem.Array{a},
		Strategy:        StrategyRunTwice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != 90 {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(rep.Strategy, "run-twice") {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	// State equals the sequential loop's: no residue from the first run.
	for i := 0; i < n; i++ {
		want := 0.0
		if i < 90 {
			want = float64(i) + 1
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
	// Incompatible with a PD test.
	if _, err := RunInduction(inductionLoop(a, 90, n), Options{
		Procs: 2, Strategy: StrategyRunTwice, Tested: []*mem.Array{a},
	}); err == nil {
		t.Fatal("StrategyRunTwice with Tested arrays must be rejected")
	}
}

func TestProcsDefaulting(t *testing.T) {
	if got := (Options{}).procs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs=0 -> procs() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Procs: 1}).procs(); got != 1 {
		t.Fatalf("Procs=1 -> procs() = %d, want 1 (explicit sequential)", got)
	}
	if got := (Options{Procs: 6}).procs(); got != 6 {
		t.Fatalf("Procs=6 -> procs() = %d", got)
	}
	// Validate rejects negatives; procs() still clamps defensively.
	if got := (Options{Procs: -3}).procs(); got != 1 {
		t.Fatalf("Procs=-3 -> procs() = %d, want clamp to 1", got)
	}
}

func TestRunInductionPartialRecovery(t *testing.T) {
	// Iteration i writes A[i]; iteration 90 exposed-reads A[60] — one
	// flow dependence that fails the PD test with first violation 60.
	const n, w, r = 128, 60, 90
	mkLoop := func(a *mem.Array) *loopir.Loop[int] {
		return &loopir.Loop[int]{
			Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
			Disp:  loopir.IntInduction{C: 1},
			Body: func(it *loopir.Iter, d int) bool {
				if d == r {
					it.Store(a, d, 1000+it.Load(a, w))
				} else {
					it.Store(a, d, float64(d)+1)
				}
				return true
			},
			Max: n,
		}
	}

	// Sequential oracle.
	oracle := mem.NewArray("A", n)
	loopir.RunSequential(mkLoop(oracle))

	a := mem.NewArray("A", n)
	rep, err := RunInduction(mkLoop(a), Options{
		Procs:    1, // single VP: dependent accesses cannot physically race
		Shared:   []*mem.Array{a},
		Tested:   []*mem.Array{a},
		Strategy: StrategyRecover,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || !rep.UsedParallel || rep.Failure == "" {
		t.Fatalf("report %+v: want Valid=%d with a kept parallel prefix and a recorded failure", rep, n)
	}
	if rep.PrefixCommitted != w {
		t.Fatalf("PrefixCommitted = %d, want %d", rep.PrefixCommitted, w)
	}
	for i := range a.Data {
		if a.Data[i] != oracle.Data[i] {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], oracle.Data[i])
		}
	}

	// Same loop with recovery off: full sequential fallback, same state.
	b := mem.NewArray("A", n)
	rep2, err := RunInduction(mkLoop(b), Options{
		Procs: 1, Shared: []*mem.Array{b}, Tested: []*mem.Array{b},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.UsedParallel || rep2.PrefixCommitted != 0 || rep2.Valid != n {
		t.Fatalf("baseline report %+v", rep2)
	}
	for i := range b.Data {
		if b.Data[i] != oracle.Data[i] {
			t.Fatalf("baseline A[%d] = %v, want %v", i, b.Data[i], oracle.Data[i])
		}
	}
}

func TestValidateRecoveryOptions(t *testing.T) {
	if err := (Options{Strategy: StrategyRecover, SparseUndo: true}).Validate(); err == nil {
		t.Fatal("StrategyRecover with SparseUndo must be rejected")
	}
	a := mem.NewArray("A", 4)
	if err := (Options{Strategy: StrategyRecover, Privatized: []speculate.PrivSpec{{Arr: a}}}).Validate(); err == nil {
		t.Fatal("StrategyRecover with Privatized must be rejected")
	}
	if err := (Options{Strategy: StrategyRecover}).Validate(); err != nil {
		t.Fatalf("valid recovery options rejected: %v", err)
	}
}
