package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"whilepar"
)

// testScale shrinks every case's iteration count for the self-tests.
const testScale = 16

func smallStrip(t *testing.T) *loopCase {
	t.Helper()
	c := stripsCases(7, testScale)[4] // carries a late dependence
	c.prepare(1, nil)
	return c
}

// TestOracleRejects checks that the oracle catches each kind of wrong
// output: a flipped element, a wrong Valid, and a stray write past the
// exit (overshoot that was not undone).
func TestOracleRejects(t *testing.T) {
	c := smallStrip(t)
	arrs := c.fresh()
	rep, err := c.exec(context.Background(), whilepar.Options{Profiles: whilepar.NewProfileStore(), Key: c.key}, arrs, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(rep, arrs); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}

	flipped := c.fresh()
	for k := range flipped {
		copy(flipped[k].Data, c.want[k])
	}
	flipped[0].Data[3] = -flipped[0].Data[3]
	if c.check(rep, flipped) == nil {
		t.Error("flipped element accepted")
	}

	bad := rep
	bad.Valid--
	if c.check(bad, arrs) == nil {
		t.Error("wrong Valid accepted")
	}

	stray := c.fresh()
	for k := range stray {
		copy(stray[k].Data, c.want[k])
	}
	w := len(stray[0].Data) / c.n
	past := (c.wantValid + 1) * w // a block no valid iteration writes
	stray[0].Data[past] = mix(stray[0].Data[past], 1, 0)
	if c.check(rep, stray) == nil {
		t.Error("stray write past the exit accepted")
	}
	if c.checkPrefix(c.wantValid, stray) == nil {
		t.Error("stray write past the exit accepted as a prefix")
	}

	// A genuine prefix passes the prefix check and fails the full one.
	prefix := c.fresh()
	half := c.wantValid / 2
	work := c.copyInit()
	c.ref(work, half)
	for k := range prefix {
		copy(prefix[k].Data, work[k])
	}
	if err := c.checkPrefix(half, prefix); err != nil {
		t.Errorf("sequential prefix rejected: %v", err)
	}
	if c.check(whilepar.Report{Valid: half}, prefix) == nil {
		t.Error("prefix accepted as the full result")
	}
}

// TestSeedsDiffer checks that two seeds give different inputs and that
// both pass.
func TestSeedsDiffer(t *testing.T) {
	a, b := stripsCases(1, testScale), stripsCases(2, testScale)
	for i := range a {
		if sameBits(a[i].init, b[i].init) {
			t.Errorf("case %s: seeds 1 and 2 gave identical inputs", a[i].key)
		}
	}
	for _, seed := range []int64{1, 2} {
		res := runSmall(t, "spec-strips", seed, "")
		if !res.Correct || res.Failed != 0 {
			t.Errorf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every workload briefly, untraced, and checks that
// every operation passed and that the result carries exactly the
// end-to-end metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var want []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
	}
	for _, wl := range spec.Workloads {
		res := runSmall(t, wl.Name, 3, "")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, res.Correct, res.Attempted, res.Failed)
		}
		if got := keys(res.Metrics); !equal(got, sorted(want)) {
			t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", wl.Name, got, sorted(want))
		}
	}
}

// TestTraced runs one traced workload: it must print every per-layer
// metric BENCHMARK.json declares and write a Chrome trace whose spans
// carry operation ids.
func TestTraced(t *testing.T) {
	spec := loadSpec(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	res := runSmall(t, "serve-mixed", 4, out)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range spec.PerLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []whilepar.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, ev := range tr.TraceEvents {
		if ev.Name == "serve.submit" && ev.Args["op"] != nil && ev.Args["parent"] != nil {
			children++
		}
	}
	if children == 0 {
		t.Error("no serve.submit spans linked to an operation")
	}
}

// runSmall runs a workload at test scale for half a second; a non-empty
// traceOut makes it a traced run writing its Chrome trace there.
func runSmall(t *testing.T, name string, seed int64, traceOut string) result {
	t.Helper()
	cfg := config{seed: seed, seconds: 0.5, traced: traceOut != "", scale: testScale, traceOut: traceOut}
	for _, w := range workloads {
		if w.name == name {
			cfg.wl = w
		}
	}
	if cfg.wl.build == nil {
		t.Fatalf("unknown workload %s", name)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
