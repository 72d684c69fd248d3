package qgen_test

import (
	"fmt"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/qgen"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
)

// buildEngines constructs the engine panel for one query: the recursively
// compiled engine and the re-evaluating Volcano baseline as the semantic
// oracle.
func buildEngines(src string) ([]engine.Engine, error) {
	q, err := engine.Prepare(src, qgen.Catalog())
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	typed, err := engine.NewToaster(q, runtime.Options{})
	if err != nil {
		return nil, fmt.Errorf("toaster: %w", err)
	}
	oracle := engine.NewNaive(q)
	// The generated Go is checked against the compiled engine by
	// TestNativeQgenDifferential in internal/engine, over a fixed seed set:
	// every distinct query costs a `go build`.
	return []engine.Engine{typed, oracle}, nil
}

// runDifferential feeds the trace to every engine and requires bitwise
// result agreement at checkpoints and at the end.
func runDifferential(t *testing.T, seed int64, src string, evs []stream.Event, checkEvery int) {
	t.Helper()
	engines, err := buildEngines(src)
	if err != nil {
		t.Fatalf("seed %d: %q: %v", seed, src, err)
	}
	for i, ev := range evs {
		for _, e := range engines {
			if err := e.OnEvent(ev); err != nil {
				t.Fatalf("seed %d: %q: %s OnEvent(%s): %v", seed, src, e.Name(), ev, err)
			}
		}
		if (i+1)%checkEvery != 0 && i != len(evs)-1 {
			continue
		}
		ref, err := engines[0].Results()
		if err != nil {
			t.Fatalf("seed %d: %q: %s Results: %v", seed, src, engines[0].Name(), err)
		}
		for _, e := range engines[1:] {
			got, err := e.Results()
			if err != nil {
				t.Fatalf("seed %d: %q: %s Results: %v", seed, src, e.Name(), err)
			}
			if !ref.Equal(got) {
				t.Fatalf("seed %d: %q: after event %d (%s) engines disagree\n%s:\n%s\n%s:\n%s",
					seed, src, i, evs[i], engines[0].Name(), ref, e.Name(), got)
			}
		}
	}
}

// TestQgenDifferential drives 200+ seeded random queries, each against a
// random trace with deletes and updates, through the full engine panel.
func TestQgenDifferential(t *testing.T) {
	n := 220
	traceLen := 48
	if testing.Short() {
		n, traceLen = 40, 24
	}
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		g := qgen.New(seed)
		src := g.Query()
		runDifferential(t, seed, src, g.Trace(traceLen), 6)
	}
}

// TestQgenAlwaysCompiles pins the generator's contract: every generated
// query parses, analyzes, translates, and compiles.
func TestQgenAlwaysCompiles(t *testing.T) {
	for i := 0; i < 500; i++ {
		seed := int64(i)
		src := qgen.New(seed).Query()
		q, err := engine.Prepare(src, qgen.Catalog())
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, src, err)
		}
		eng, err := engine.NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, src, err)
		}
		_ = eng
	}
}

// FuzzQueryAgreement explores the seed space: each fuzz input picks a
// query and a trace, and all engines must agree bitwise.
func FuzzQueryAgreement(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1001, 31337} {
		f.Add(seed, uint8(32))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		g := qgen.New(seed)
		src := g.Query()
		evs := g.Trace(int(n%64) + 4)
		engines, err := buildEngines(src)
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, src, err)
		}
		for _, ev := range evs {
			for _, e := range engines {
				if err := e.OnEvent(ev); err != nil {
					t.Fatalf("seed %d: %q: %s OnEvent: %v", seed, src, e.Name(), err)
				}
			}
		}
		ref, err := engines[0].Results()
		if err != nil {
			t.Fatalf("seed %d: %q: Results: %v", seed, src, err)
		}
		for _, e := range engines[1:] {
			got, err := e.Results()
			if err != nil {
				t.Fatalf("seed %d: %q: %s Results: %v", seed, src, e.Name(), err)
			}
			if !ref.Equal(got) {
				t.Fatalf("seed %d: %q: %s disagrees\nref:\n%s\ngot:\n%s", seed, src, e.Name(), ref, got)
			}
		}
	})
}
