package core

// Context, deadline and panic-containment behaviour of the orchestrated
// entry points: a done context (or an expired Options.Deadline) must
// surface as the typed sentinel with the committed prefix in the
// Report, a panicking body must either surface as ErrWorkerPanic with
// speculative state restored or — under FallbackSequential — complete
// through the sequential fallback, and malformed deadlines must be
// rejected before any goroutine starts.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"whilepar/internal/cancel"
	"whilepar/internal/induction"
	"whilepar/internal/list"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
)

func TestValidateRejectsNegativeDeadline(t *testing.T) {
	err := Options{Deadline: -time.Second}.Validate()
	if !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("err = %v", err)
	}
	a := mem.NewArray("A", 4)
	l := inductionLoop(a, -1, 4)
	if _, err := RunInductionCtx(context.Background(), l, Options{Deadline: -1}); !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("entry point err = %v", err)
	}
}

func TestRunInductionCtxPreCanceled(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	a := mem.NewArray("A", 64)
	l := inductionLoop(a, -1, 64)
	l.Class.Terminator = loopir.RI
	l.Class.ThresholdOnMonotonic = true
	rep, err := RunInductionCtx(ctx, l, Options{Procs: 4})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid != 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestRunInductionCtxDeadline(t *testing.T) {
	// Each iteration sleeps, so the deadline expires mid-loop: the
	// engine must stop issuing, report ErrDeadline (matching
	// context.DeadlineExceeded too), and cap Valid at the committed
	// prefix.
	n := 1000
	a := mem.NewArray("A", n)
	l := &loopir.Loop[int]{
		Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RI,
			ThresholdOnMonotonic: true},
		Disp: loopir.IntInduction{C: 1},
		Body: func(it *loopir.Iter, d int) bool {
			time.Sleep(time.Millisecond)
			it.Store(a, d, 1)
			return true
		},
		Max: n,
	}
	rep, err := RunInductionCtx(context.Background(), l, Options{Procs: 2, Deadline: 10 * time.Millisecond})
	if !errors.Is(err, cancel.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid >= n {
		t.Fatalf("deadline did not stop the loop: %+v", rep)
	}
	for i := 0; i < rep.Valid; i++ {
		if a.Data[i] != 1 {
			t.Fatalf("Valid = %d but iteration %d never ran", rep.Valid, i)
		}
	}
}

func TestRunInductionCtxPanicSurfaces(t *testing.T) {
	// A panic on the speculative path unwinds: the strip in flight is
	// restored to its checkpoint — the shared arrays hold exactly the
	// committed prefix — and the error matches ErrWorkerPanic with the
	// global iteration attached.  Under the adaptive default the
	// committed prefix is the sequential probe plus every clean strip
	// before the one that panicked; under StrategyPipeline it is the
	// pipelined strips committed before it, for an induction loop and
	// for an associative loop over precomputed terms alike.
	for _, tc := range []struct {
		name     string
		n, at    int
		strategy Strategy
		procs    int
		assoc    bool
	}{
		{"auto", 128, 40, Auto, 4, false},
		{"pipeline-induction", 4096, 3000, StrategyPipeline, 2, false},
		{"pipeline-associative", 4096, 3000, StrategyPipeline, 2, true},
	} {
		a := mem.NewArray("A", tc.n)
		var fired atomic.Bool
		body := func(d int) bool {
			if d == tc.at && fired.CompareAndSwap(false, true) {
				panic("body exploded")
			}
			if tc.strategy == Auto && d >= 100 {
				return false
			}
			return true
		}
		opt := Options{
			Strategy:        tc.strategy,
			Procs:           tc.procs,
			InductionMethod: induction.Induction1,
			Shared:          []*mem.Array{a},
			Tested:          []*mem.Array{a},
		}
		var rep Report
		var err error
		if tc.assoc {
			rep, err = RunAssociativeCtx(context.Background(), &loopir.Loop[float64]{
				Class: loopir.Class{Dispatcher: loopir.AssociativeRecurrence, Terminator: loopir.RV},
				Disp:  loopir.Affine{A: 1, B: 1}, // x = 0, 1, 2, ...
				Body: func(it *loopir.Iter, x float64) bool {
					if !body(int(x)) {
						return false
					}
					it.Store(a, it.Index, x+1)
					return true
				},
				Max: tc.n,
			}, opt)
		} else {
			rep, err = RunInductionCtx(context.Background(), &loopir.Loop[int]{
				Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
				Disp:  loopir.IntInduction{C: 1},
				Body: func(it *loopir.Iter, d int) bool {
					if !body(d) {
						return false
					}
					it.Store(a, d, float64(d)+1)
					return true
				},
				Max: tc.n,
			}, opt)
		}
		if !errors.Is(err, cancel.ErrWorkerPanic) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		pe, ok := cancel.AsPanic(err)
		if !ok || pe.Iter != tc.at || pe.Value != "body exploded" {
			t.Fatalf("%s: panic detail %+v", tc.name, pe)
		}
		if rep.UsedParallel {
			t.Fatalf("%s: report %+v", tc.name, rep)
		}
		for i, v := range a.Data {
			if i < rep.Valid {
				if v != float64(i)+1 {
					t.Fatalf("%s: A[%d] = %v inside the committed prefix (Valid = %d)", tc.name, i, v, rep.Valid)
				}
			} else if v != 0 {
				t.Fatalf("%s: A[%d] = %v after restore (Valid = %d)", tc.name, i, v, rep.Valid)
			}
		}
		if rep.Valid > tc.at {
			t.Fatalf("%s: Valid = %d commits past the panicking iteration", tc.name, rep.Valid)
		}
	}
}

func TestRunInductionCtxPanicFallbackSequential(t *testing.T) {
	// Same loop, FallbackSequential set: the panic routes through the
	// speculative exception path and the sequential fallback completes
	// the loop — no error, sequential-identical state.
	a := mem.NewArray("A", 128)
	var fired atomic.Bool
	l := &loopir.Loop[int]{
		Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RV},
		Disp:  loopir.IntInduction{C: 1},
		Body: func(it *loopir.Iter, d int) bool {
			if d == 40 && fired.CompareAndSwap(false, true) {
				panic("body exploded")
			}
			if d >= 100 {
				return false
			}
			it.Store(a, d, float64(d)+1)
			return true
		},
		Max: 128,
	}
	rep, err := RunInductionCtx(context.Background(), l, Options{
		Procs:              4,
		InductionMethod:    induction.Induction1,
		Shared:             []*mem.Array{a},
		Tested:             []*mem.Array{a},
		FallbackSequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 100 || rep.UsedParallel || rep.Failure == "" {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < 128; i++ {
		want := 0.0
		if i < 100 {
			want = float64(i) + 1
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunGeneralNumericCtxDeadlineOnPromotePath(t *testing.T) {
	// An affine-recognizable opaque dispatcher promotes to the
	// parallel-prefix path; the deadline wired in by the outer entry
	// point must still bound the promoted execution (and only be
	// derived once — a double WithTimeout would not change semantics
	// but would leak a timer; this exercises the single-wrap wiring).
	n := 500
	a := mem.NewArray("A", n)
	l := &loopir.Loop[float64]{
		Class: loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Disp: loopir.Func[float64]{
			StartFn: func() float64 { return 1 },
			NextFn:  func(x float64) float64 { return x + 1 },
		},
		Cond: func(x float64) bool { return x < 1e18 },
		Body: func(it *loopir.Iter, x float64) bool {
			time.Sleep(time.Millisecond)
			it.Store(a, it.Index, x)
			return true
		},
		Max: n,
	}
	rep, err := RunGeneralNumericCtx(context.Background(), l,
		Options{Procs: 2, Deadline: 10 * time.Millisecond})
	if !errors.Is(err, cancel.ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid >= n {
		t.Fatalf("deadline did not stop the loop: %+v", rep)
	}
}

func TestRunListCtxCancelMidTraversal(t *testing.T) {
	n := 5000
	a := mem.NewArray("A", n)
	head := list.Build(n, func(i int) (float64, float64) { return float64(i), 1 })
	ctx, stop := context.WithCancel(context.Background())
	var executed atomic.Int64
	rep, err := RunListCtx(ctx, head, func(it *loopir.Iter, nd *list.Node) bool {
		executed.Add(1)
		if nd.Key == 10 {
			stop()
		}
		if ctx.Err() != nil {
			time.Sleep(time.Microsecond) // let the engine's stop flag land
		}
		it.Store(a, nd.Key, nd.Val*2)
		return true
	}, loopir.Class{Dispatcher: loopir.GeneralRecurrence, Terminator: loopir.RI},
		Options{Procs: 4})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rep.Valid > int(executed.Load()) {
		t.Fatalf("Valid = %d exceeds executed %d", rep.Valid, executed.Load())
	}
	for i := 0; i < rep.Valid; i++ {
		if a.Data[i] != float64(2*i) {
			t.Fatalf("Valid = %d but node %d never ran (A[%d] = %v)", rep.Valid, i, i, a.Data[i])
		}
	}
}
