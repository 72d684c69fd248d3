package main

import (
	"math"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// testConfig is a workload at 1/200 of its frozen size.
func testConfig(t *testing.T, w *workload) *runConfig {
	return &runConfig{w: w, seed: 7, seconds: 6, scale: 1.0 / 200, tmpRoot: t.TempDir(),
		oracleEvents: 120, maxTailCycles: minTailCycles, dropRefEvent: -1}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkDefinition holds the harness to BENCHMARK.json: the same
// workloads, and every name within the contract's alphabet.
func TestBenchmarkDefinition(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range def.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", declared, workloadNames())
	}
	all := append(append(declared, defNames(def.EndToEnd)...), defNames(def.PerLayer)...)
	seen := map[string]bool{}
	for _, n := range all {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

// TestWorkloadsEndToEnd runs every workload's full end-to-end procedure —
// repeated set-up, ingest, the correctness gate, recover, REGISTER and
// CHECKPOINT cycles — against an in-process server, and checks that the
// metrics it emits are exactly BENCHMARK.json's.
func TestWorkloadsEndToEnd(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w)
			res, err := runEndToEnd(cfg, func() host { return &inprocHost{w: w} })
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("gate failed: mismatches %v, %d of %d operations failed (%s)", res.Mismatch, res.Failed, res.Attempted, res.FirstErr)
			}
			m := endToEndMetrics(cfg, res)
			if got, want := sortedNames(m), defNames(def.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("emitted %v, BENCHMARK.json declares %v", got, want)
			}
			for n, v := range m {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never zero or undefined", n, v.Value)
				}
			}
		})
	}
}

// TestGateCatchesADroppedEvent is the gate's negative test: a reference
// that missed one event must not agree with the server. One workload per
// event stream is enough; the gate itself is shared.
func TestGateCatchesADroppedEvent(t *testing.T) {
	for _, name := range []string{"fin_b1", "wh_b64"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w)
			cfg.dropRefEvent = 3
			res, err := runEndToEnd(cfg, func() host { return &inprocHost{w: w} })
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("the gate passed although the reference dropped an event")
			}
		})
	}
}

// TestTracedRun checks the per-layer side the same way.
func TestTracedRun(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w)
			m, err := runTraced(cfg, runInfo{Workload: w.name}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedNames(m), defNames(def.PerLayer); !slices.Equal(got, want) {
				t.Errorf("emitted %v, BENCHMARK.json declares %v", got, want)
			}
			for n, v := range m {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", n, v.Value)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
