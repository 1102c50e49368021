package speculate

import (
	"context"
	"errors"
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/sched"
)

// stripLoop builds StripPar/StripSeq for a loop writing A[i] = i+1 with
// an RV exit at `exit` and an optional planted dependence window in
// which iterations read their predecessor's element.
func stripLoop(a *mem.Array, exit int, depLo, depHi int) (StripPar, StripSeq) {
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: 4}, func(j, vpn int) sched.Control {
			i := lo + j
			if i == exit {
				return sched.Quit
			}
			if i >= depLo && i < depHi && i > 0 {
				_ = tr.Load(a, i-1, i, vpn) // exposed read: cross-iteration dep
			}
			tr.Store(a, i, float64(i+1), i, vpn)
			return sched.Continue
		})
		if res.QuitIndex < hi-lo {
			return res.QuitIndex, true, nil
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true
			}
			a.Data[i] = float64(i + 1)
		}
		return hi - lo, false
	}
	return par, seq
}

func expectState(t *testing.T, a *mem.Array, valid int) {
	t.Helper()
	for i := range a.Data {
		want := 0.0
		if i < valid {
			want = float64(i + 1)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunStrippedCleanLoop(t *testing.T) {
	n := 200
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, Strips{Size: 32}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.Done || rep.SeqStrips != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Strips != (n+31)/32 {
		t.Fatalf("strips = %d", rep.Strips)
	}
	expectState(t, a, n)
}

func TestRunStrippedStopsAtExit(t *testing.T) {
	n := 300
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, 137, 0, 0)
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, Strips{Size: 50}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 137 || !rep.Done {
		t.Fatalf("report %+v", rep)
	}
	if rep.Strips != 3 { // [0,50) [50,100) [100,150)
		t.Fatalf("strips = %d", rep.Strips)
	}
	expectState(t, a, 137)
}

func TestRunStrippedFailedStripFallsBackLocally(t *testing.T) {
	// A dependence window inside strip 2 only: that strip re-executes
	// sequentially; the others stay parallel.
	n := 160
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 70, 75)
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, Strips{Size: 40}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqStrips != 1 {
		t.Fatalf("exactly one strip should fall back, got %d (%+v)", rep.SeqStrips, rep)
	}
	if rep.Valid != n {
		t.Fatalf("valid = %d", rep.Valid)
	}
	expectState(t, a, n)
}

func TestRunStrippedExceptionFallsBack(t *testing.T) {
	n := 80
	a := mem.NewArray("A", n)
	_, seq := stripLoop(a, -1, 0, 0)
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		if lo == 40 {
			return 0, false, errors.New("simulated exception")
		}
		for i := lo; i < hi; i++ {
			tr.Store(a, i, float64(i+1), i, 0)
		}
		return hi - lo, false, nil
	}
	rep, err := RunStrips(context.Background(), Spec{Procs: 2, Shared: []*mem.Array{a}}, 0, n, Strips{Size: 40}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqStrips != 1 || rep.Valid != n {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedExitInsideFailedStrip(t *testing.T) {
	// The strip both carries a dependence and contains the exit: the
	// sequential re-execution finds the exit and the loop stops.
	n := 200
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, 90, 85, 95)
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		0, n, Strips{Size: 40}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 90 || !rep.Done || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	expectState(t, a, 90)
}

func TestRunStrippedRejectsBadArgs(t *testing.T) {
	if _, err := RunStrips(context.Background(), Spec{}, 0, 10, Strips{Size: 4}, nil, nil); err == nil {
		t.Fatal("nil runners must be rejected")
	}
	// A non-positive strip size is clamped to single-iteration strips
	// (the facade rejects it before it gets here).
	n := 10
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	rep, err := RunStrips(context.Background(), Spec{Procs: 2, Shared: []*mem.Array{a}}, 0, n, Strips{}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strips != n || rep.Valid != n {
		t.Fatalf("zero strip size should run %d one-iteration strips: %+v", n, rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedOverReportingStripFails(t *testing.T) {
	// A parallel runner claiming more valid iterations than the strip
	// holds is treated as invalid (fallback), not trusted.
	n := 40
	a := mem.NewArray("A", n)
	_, seq := stripLoop(a, -1, 0, 0)
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		return hi - lo + 99, false, nil
	}
	rep, err := RunStrips(context.Background(), Spec{Procs: 2, Shared: []*mem.Array{a}}, 0, n, Strips{Size: 20}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqStrips != rep.Strips {
		t.Fatalf("over-reporting strips must all fall back: %+v", rep)
	}
	expectState(t, a, n)
}
