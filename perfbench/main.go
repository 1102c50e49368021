// Command perfbench is the whilepar benchmark: it drives seeded
// workloads through the library's public entry points — facade
// RunContext calls from a single caller, and whilepard jobs over
// loopback HTTP — checks every operation against the benchmark's own
// plain-Go sequential loop, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as one JSON line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the checkout's sources:
//
//	bash perfbench/run.sh --workload spec-strips --seed 1 --seconds 10 --trace 0
//
// Workloads: spec-strips, shapes, serve-mixed (see NOTES.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"whilepar"
)

// workload is one of the benchmark's seeded workloads.
type workload struct {
	name  string
	build func(seed int64, scale int) []*loopCase
	// serve: drive the cases as whilepard jobs instead of facade calls.
	serve bool
}

var workloads = []workload{
	{"spec-strips", stripsCases, false},
	{"shapes", shapesCases, false},
	{"serve-mixed", serveCases, true},
}

// setupReps is how often a run repeats its set-up; setup_s is the
// median.  The last set-up's state is the one measured.
const setupReps = 3

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	wl       workload
	seed     int64
	seconds  float64
	traced   bool
	scale    int    // iteration-count divisor (1; larger in self-tests)
	traceOut string // Chrome-trace path of a traced run
}

func main() {
	name := flag.String("workload", "", "spec-strips, shapes or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build", "directory for the Chrome-trace file of a traced run")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.wl, found = w, true
		}
	}
	if !found || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload spec-strips|shapes|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if cfg.traced {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg.traceOut = filepath.Join(*traceDir, fmt.Sprintf("perfbench-trace-%s-%d.json", cfg.wl.name, cfg.seed))
	}

	fp, _ := json.Marshal(hostFingerprint())
	fmt.Printf("{\"host\": %s, \"workload\": %q, \"seed\": %d, \"trace\": %d}\n", fp, cfg.wl.name, cfg.seed, *trace)
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostFingerprint identifies the machine class a result belongs to.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
	}
}

// harness is a set-up workload ready to measure, in either mode.
type harness struct {
	cases   []*loopCase
	measure func(ctx context.Context, d time.Duration, rec *spanRec, traced bool) *tally
	close   func() error
}

// setup builds the workload once, returning the harness and the set-up
// time.  Warm-up operations are checked and recorded in t.
func setup(cfg config, prev []*loopCase, rec *spanRec, t *tally) (*harness, time.Duration, error) {
	if cfg.wl.serve {
		s, d, err := setupServe(cfg.wl.build, cfg.seed, cfg.scale, prev, rec, t)
		if err != nil {
			return nil, 0, err
		}
		return &harness{cases: s.cases, close: s.stop,
			measure: func(ctx context.Context, d time.Duration, rec *spanRec, traced bool) *tally {
				t := newTally()
				s.closedLoop(cfg.seed, d, true, rec, t)
				return t
			}}, d, nil
	}
	w, d, err := setupSingle(cfg.wl.build, cfg.seed, cfg.scale, prev, rec, t)
	if err != nil {
		return nil, 0, err
	}
	return &harness{cases: w.cases, close: func() error { return nil }, measure: w.measure}, d, nil
}

// run performs one invocation: set-up (setupReps times untraced, once
// traced), the measured phase, and the result.
func run(ctx context.Context, cfg config) (result, error) {
	var rec *spanRec
	if cfg.traced {
		rec = newSpanRec()
	}
	warm := newTally()
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var h *harness
	setupTimes := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		var prev []*loopCase
		if h != nil {
			if err := h.close(); err != nil {
				return result{}, err
			}
			prev = h.cases
		}
		var d time.Duration
		var err error
		if h, d, err = setup(cfg, prev, rec, warm); err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer h.close()
	runtime.GC()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var t *tally
	var metrics map[string]metric
	if !cfg.traced {
		alloc0 := totalAlloc()
		t = h.measure(ctx, dur, nil, false)
		metrics = t.endToEnd(totalAlloc()-alloc0, median(setupTimes))
	} else {
		// Half untraced, half traced, on the same warm state: the ratio
		// of their throughputs is the tracing overhead.
		plain := h.measure(ctx, dur/2, nil, false)
		t = h.measure(ctx, dur/2, rec, true)
		metrics = t.perLayer()
		metrics["trace.overhead_frac"] = metric{frac(t.opsPerSec(), plain.opsPerSec()) - 1, "ratio"}
		for k, v := range runProbes(ctx, cfg.seed, h.cases, t.listBusy, t.listNodes, rec) {
			metrics[k] = v
		}
		warm.merge(plain)
		if !cfg.wl.serve {
			probe, err := serveProbe(cfg, h.cases, metrics)
			if err != nil {
				return result{}, err
			}
			warm.merge(probe)
		}
		metrics["trace.spans"] = metric{float64(rec.count()), "count"}
		if err := rec.writeChrome(cfg.traceOut); err != nil {
			return result{}, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", cfg.traceOut)
	}

	attempted := t.attempted + warm.attempted
	failed := t.failed + warm.failed
	for _, e := range append(warm.errs, t.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: unexpected outcome:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed ops (%d latency samples), %d warm-up ops, %d failed\n",
		cfg.wl.name, cfg.seed, t.attempted, len(t.latMs), warm.attempted, failed)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// serveProbe runs the workload's own loops (those not bound to an
// interpreter environment) as plain whilepard jobs for a second, so the
// serve.* rows exist on every workload.  Its jobs are checked like any
// other operation; the returned tally carries them.
func serveProbe(cfg config, cases []*loopCase, metrics map[string]metric) (*tally, error) {
	var native []*loopCase
	for _, c := range cases {
		if c.bind == nil {
			native = append(native, c)
		}
	}
	s, err := startServer(native, whilepar.NewProfileStore())
	if err != nil {
		return nil, err
	}
	t := newTally()
	s.closedLoop(cfg.seed, time.Second, false, nil, t)
	if err := s.stop(); err != nil {
		return nil, err
	}
	for k, v := range t.perLayer() {
		if strings.HasPrefix(k, "serve.") {
			metrics[k] = v
		}
	}
	return t, nil
}
