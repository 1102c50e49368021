package speculate

import (
	"context"
	"testing"
	"testing/quick"

	"whilepar/internal/mem"
	"whilepar/internal/window"
)

func TestRunWindowedCleanLoop(t *testing.T) {
	n := 500
	a := mem.NewArray("A", n)
	rep, err := RunWindowedCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		n,
		window.Config{Window: 16},
		func(tr mem.Tracker, i, vpn int) bool {
			tr.Store(a, i, float64(i+1), i, vpn)
			return false
		},
		func() int { t.Fatal("must not fall back"); return 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != n {
		t.Fatalf("report %+v", rep)
	}
	if rep.MaxSpan > 16 {
		t.Fatalf("span %d exceeded the window", rep.MaxSpan)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != float64(i+1) {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
}

func TestRunWindowedExitUndoesBoundedOvershoot(t *testing.T) {
	n, exit, w := 2000, 300, 12
	a := mem.NewArray("A", n)
	for i := range a.Data {
		a.Data[i] = -1
	}
	rep, err := RunWindowedCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		n,
		window.Config{Window: w},
		func(tr mem.Tracker, i, vpn int) bool {
			if i == exit {
				return true
			}
			tr.Store(a, i, float64(i), i, vpn)
			return false
		},
		func() int { t.Fatal("must not fall back"); return 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != exit || !rep.UsedParallel {
		t.Fatalf("report %+v", rep)
	}
	// The window bounds the overshoot and hence the undo.
	if rep.Undone > w+1 {
		t.Fatalf("undone %d exceeds window bound %d", rep.Undone, w)
	}
	for i := 0; i < n; i++ {
		want := -1.0
		if i < exit {
			want = float64(i)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

func TestRunWindowedDependenceFallsBack(t *testing.T) {
	n := 200
	a := mem.NewArray("A", n)
	seqRan := false
	rep, err := RunWindowedCtx(context.Background(),
		Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}},
		n,
		window.Config{Window: 8},
		func(tr mem.Tracker, i, vpn int) bool {
			prev := 0.0
			if i > 0 {
				prev = tr.Load(a, i-1, i, vpn)
			}
			tr.Store(a, i, prev+1, i, vpn)
			return false
		},
		func() int {
			seqRan = true
			for i := 0; i < n; i++ {
				prev := 0.0
				if i > 0 {
					prev = a.Data[i-1]
				}
				a.Data[i] = prev + 1
			}
			return n
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedParallel || !seqRan || rep.Valid != n {
		t.Fatalf("report %+v, seqRan=%v", rep, seqRan)
	}
	for i := 0; i < n; i++ {
		if a.Data[i] != float64(i+1) {
			t.Fatalf("sequential re-execution wrong at %d: %v", i, a.Data[i])
		}
	}
}

func TestRunWindowedRejectsNilRunners(t *testing.T) {
	if _, err := RunWindowedCtx(context.Background(), Spec{}, 10, window.Config{}, nil, nil); err == nil {
		t.Fatal("nil runners must be rejected")
	}
}

// Property: windowed speculation matches the sequential prefix for
// random exits, windows and processor counts.
func TestRunWindowedMatchesSequentialProperty(t *testing.T) {
	f := func(exitRaw, wRaw, procsRaw uint8) bool {
		n := 150
		exit := int(exitRaw) % n
		procs := int(procsRaw)%4 + 1
		w := int(wRaw)%24 + procs
		par := mem.NewArray("A", n)
		seq := mem.NewArray("A", n)
		for i := 0; i < exit; i++ {
			seq.Data[i] = float64(i * 2)
		}
		rep, err := RunWindowedCtx(context.Background(),
			Spec{Procs: procs, Shared: []*mem.Array{par}, Tested: []*mem.Array{par}},
			n,
			window.Config{Window: w},
			func(tr mem.Tracker, i, vpn int) bool {
				if i == exit {
					return true
				}
				tr.Store(par, i, float64(i*2), i, vpn)
				return false
			},
			func() int { return -1 }, // would corrupt; must not run
		)
		return err == nil && rep.UsedParallel && rep.Valid == exit && par.Equal(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
