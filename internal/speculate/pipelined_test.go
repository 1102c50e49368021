package speculate

import (
	"context"
	"math/rand"
	"testing"

	"whilepar/internal/mem"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// poolStripLoop is stripLoop with the strip DOALLs dispatched onto a
// persistent pool — the combination the core wiring produces when
// Options.Pipeline is set.
func poolStripLoop(a *mem.Array, pool *sched.Pool, exit, depLo, depHi int) (StripPar, StripSeq) {
	_, seq := stripLoop(a, exit, depLo, depHi)
	par := func(tr mem.Tracker, lo, hi int) (int, bool, error) {
		res := sched.DOALL(hi-lo, sched.Options{Procs: 4, Pool: pool}, func(j, vpn int) sched.Control {
			i := lo + j
			if i == exit {
				return sched.Quit
			}
			if i >= depLo && i < depHi && i > 0 {
				_ = tr.Load(a, i-1, i, vpn)
			}
			tr.Store(a, i, float64(i+1), i, vpn)
			return sched.Continue
		})
		if res.QuitIndex < hi-lo {
			return res.QuitIndex, true, nil
		}
		return hi - lo, false, nil
	}
	return par, seq
}

// TestRunStrippedPipelinedMatchesRunStripped drives RunStrips with and
// without Strips.Pipeline through randomized loops — exits, planted
// dependence windows, recovery on and off, pool-backed and
// spawn-per-strip DOALLs — and requires identical validity, fallback
// accounting, and final memory.
func TestRunStrippedPipelinedMatchesRunStripped(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		n := 50 + rng.Intn(400)
		strip := 1 + rng.Intn(60)
		exit := -1
		if rng.Intn(3) == 0 {
			exit = rng.Intn(n)
		}
		depLo, depHi := 0, 0
		if rng.Intn(2) == 0 {
			depLo = 1 + rng.Intn(n-1)
			depHi = depLo + 1 + rng.Intn(20)
		}
		recovery := rng.Intn(2) == 0
		usePool := rng.Intn(2) == 0

		mkSpec := func(a *mem.Array) Spec {
			return Spec{
				Procs:    4,
				Shared:   []*mem.Array{a},
				Tested:   []*mem.Array{a},
				Recovery: Recovery{Enabled: recovery},
			}
		}

		aS := mem.NewArray("A", n)
		parS, seqS := stripLoop(aS, exit, depLo, depHi)
		repS, errS := RunStrips(context.Background(), mkSpec(aS), 0, n, Strips{Size: strip}, parS, seqS)
		if errS != nil {
			t.Fatalf("trial %d: stripped: %v", trial, errS)
		}

		aP := mem.NewArray("A", n)
		var parP StripPar
		var seqP StripSeq
		var pool *sched.Pool
		if usePool {
			pool = sched.NewPool(4)
			parP, seqP = poolStripLoop(aP, pool, exit, depLo, depHi)
		} else {
			parP, seqP = stripLoop(aP, exit, depLo, depHi)
		}
		repP, errP := RunStrips(context.Background(), mkSpec(aP), 0, n, Strips{Size: strip, Pipeline: true}, parP, seqP)
		if pool != nil {
			pool.Close()
		}
		if errP != nil {
			t.Fatalf("trial %d: pipelined: %v", trial, errP)
		}

		if repP.Valid != repS.Valid || repP.Done != repS.Done {
			t.Fatalf("trial %d (n=%d strip=%d exit=%d dep=[%d,%d) rec=%v pool=%v): pipelined %+v, serial %+v",
				trial, n, strip, exit, depLo, depHi, recovery, usePool, repP, repS)
		}
		if repP.SeqStrips != repS.SeqStrips || repP.PrefixCommitted != repS.PrefixCommitted {
			t.Fatalf("trial %d: fallback accounting diverged: pipelined %+v, serial %+v", trial, repP, repS)
		}
		for i := 0; i < n; i++ {
			if aP.Data[i] != aS.Data[i] {
				t.Fatalf("trial %d: A[%d] = %v (pipelined) vs %v (serial)", trial, i, aP.Data[i], aS.Data[i])
			}
		}
	}
}

func TestRunStrippedPipelinedCleanLoopOverlapsEveryStrip(t *testing.T) {
	n, strip := 320, 32
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 0, 0)
	m := obs.NewMetrics()
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Metrics: m},
		0, n, Strips{Size: strip, Pipeline: true}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.Done || rep.SeqStrips != 0 {
		t.Fatalf("report %+v", rep)
	}
	// Every strip but the priming one runs under its predecessor's
	// validation; none is squashed.
	if want := n/strip - 1; rep.Overlapped != want || rep.Squashed != 0 {
		t.Fatalf("overlapped %d squashed %d, want %d and 0", rep.Overlapped, rep.Squashed, want)
	}
	s := m.Snapshot()
	if s.PipelinedStrips != int64(rep.Overlapped) || s.PipelineSquashes != 0 {
		t.Fatalf("metrics %d/%d disagree with report %+v", s.PipelinedStrips, s.PipelineSquashes, rep)
	}
	expectState(t, a, n)
}

func TestRunStrippedPipelinedSquashesInFlightStrip(t *testing.T) {
	// The dependence window sits in strip 1, which looks clean to its
	// own DOALL (the violation only surfaces in the PD analysis), so
	// strip 2 is already in flight when strip 1 fails — it must be
	// squashed and the final state must still be exact.
	n, strip := 200, 40
	a := mem.NewArray("A", n)
	par, seq := stripLoop(a, -1, 50, 55)
	m := obs.NewMetrics()
	rep, err := RunStrips(context.Background(), Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Metrics: m},
		0, n, Strips{Size: strip, Pipeline: true}, par, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != n || rep.SeqStrips != 1 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Squashed != 1 {
		t.Fatalf("squashed = %d, want 1 (%+v)", rep.Squashed, rep)
	}
	if s := m.Snapshot(); s.PipelineSquashes != 1 {
		t.Fatalf("metrics squashes = %d", s.PipelineSquashes)
	}
	expectState(t, a, n)
}

// TestRunStripsPipelineRequestStaysStrippedWhenUnsquashable: a pipelined
// request for a spec a squash could not cover (sparse undo, or a tier
// above TierFull) runs on the stripped path instead — same committed
// state, no overlap.
func TestRunStripsPipelineRequestStaysStrippedWhenUnsquashable(t *testing.T) {
	n, strip := 160, 32
	for _, tc := range []struct {
		name string
		spec func(a *mem.Array) Spec
	}{
		{"sparse-undo", func(a *mem.Array) Spec {
			return Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, SparseUndo: true}
		}},
		{"signature-tier", func(a *mem.Array) Spec {
			return Spec{Procs: 4, Shared: []*mem.Array{a}, Tested: []*mem.Array{a}, Tier: TierSignature}
		}},
	} {
		a := mem.NewArray("A", n)
		par, seq := stripLoop(a, -1, 0, 0)
		rep, err := RunStrips(context.Background(), tc.spec(a), 0, n, Strips{Size: strip, Pipeline: true}, par, seq)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Valid != n || rep.Overlapped != 0 || rep.Strips != n/strip {
			t.Fatalf("%s: report %+v", tc.name, rep)
		}
		expectState(t, a, n)
	}
}
