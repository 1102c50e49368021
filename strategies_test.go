package whilepar

import (
	"context"
	"testing"
)

func TestRunStrippedPublic(t *testing.T) {
	// A speculative loop with an exit at 210, run in strips of 64
	// through the public API.
	n, exit := 512, 210
	a := NewArray("A", n)
	par := func(tr Tracker, lo, hi int) (int, bool, error) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true, nil
			}
			tr.Store(a, i, float64(i), i, 0)
		}
		return hi - lo, false, nil
	}
	seq := func(lo, hi int) (int, bool) {
		for i := lo; i < hi; i++ {
			if i == exit {
				return i - lo, true
			}
			a.Data[i] = float64(i)
		}
		return hi - lo, false
	}
	rep, err := RunStripped(SpecSpec{Procs: 4, Shared: []*Array{a}, Tested: []*Array{a}},
		n, 64, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != exit || !rep.Done {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < exit {
			want = float64(i)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
	// Malformed calls are rejected before any strip runs.
	for _, strip := range []int{0, -3} {
		if _, err := RunStripped(SpecSpec{Procs: 2}, n, strip, par, seq); err == nil {
			t.Fatalf("strip size %d accepted", strip)
		}
	}
	if _, err := RunStrippedContext(context.Background(), SpecSpec{Procs: 2}, n, 64, nil, nil); err == nil {
		t.Fatal("nil runners accepted")
	}
}

func TestRunChunkedPublic(t *testing.T) {
	n := 800
	out := NewArray("out", n)
	c := BuildChunkedList(n, 50, func(i int) (float64, float64) { return float64(i), 1 })
	valid := RunChunked(c, func(it *Iter, nd *Node) bool {
		it.Store(out, nd.Key, nd.Val*2)
		return true
	}, 8)
	if valid != n {
		t.Fatalf("valid = %d", valid)
	}
	for i := 0; i < n; i++ {
		if out.Data[i] != float64(2*i) {
			t.Fatalf("out[%d] = %v", i, out.Data[i])
		}
	}
}

func TestSharedArraysHelper(t *testing.T) {
	a, b := NewArray("a", 1), NewArray("b", 1)
	s := SharedArrays(a, b)
	if len(s) != 2 || s[0] != a || s[1] != b {
		t.Fatal("SharedArrays broken")
	}
}

func TestRunWindowedPublic(t *testing.T) {
	n, exit := 600, 444
	a := NewArray("A", n)
	rep, err := RunWindowed(
		SpecSpec{Procs: 4, Shared: []*Array{a}, Tested: []*Array{a}},
		n,
		WindowConfig{Window: 20, WritesPerIter: 1, MemBudget: 20},
		func(tr Tracker, i, vpn int) bool {
			if i == exit {
				return true
			}
			tr.Store(a, i, 1, i, vpn)
			return false
		},
		func() int { t.Fatal("must not fall back"); return 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != exit {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i < exit {
			want = 1
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v", i, a.Data[i])
		}
	}
}
