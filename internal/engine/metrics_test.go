package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// TestMetricsDifferential pins the observability layer's first law:
// instrumentation must not change results. For every query in the typed
// differential lineup, an instrumented engine must produce map states and
// results bitwise identical to an uninstrumented one over the same stream.
func TestMetricsDifferential(t *testing.T) {
	cat, queries := typedDiffQueries()
	rels := []string{"T0", "T1"}
	for qi, src := range queries {
		t.Run(fmt.Sprintf("query%d", qi), func(t *testing.T) {
			q, err := Prepare(src, cat)
			if err != nil {
				t.Fatalf("prepare %q: %v", src, err)
			}
			for trial := 0; trial < 2; trial++ {
				r := rand.New(rand.NewSource(int64(9000 + 100*qi + trial)))
				events := typedDiffStream(r, rels, 250)

				plain, err := NewToaster(q, runtime.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sink := metrics.NewWithConfig(metrics.Config{SampleEvery: 1})
				instr, err := NewToaster(q, runtime.Options{Metrics: sink, MetricsLabel: "diff"})
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range events {
					if err := plain.OnEvent(ev); err != nil {
						t.Fatalf("plain OnEvent: %v", err)
					}
					if err := instr.OnEvent(ev); err != nil {
						t.Fatalf("instrumented OnEvent: %v", err)
					}
				}
				if d := diffMapStates(mapState(plain.Runtime()), mapState(instr.Runtime())); d != "" {
					t.Fatalf("%q trial %d: instrumented map state diverges: %s", src, trial, d)
				}
				ref, err := plain.Results()
				if err != nil {
					t.Fatal(err)
				}
				got, err := instr.Results()
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Equal(got) {
					t.Fatalf("%q trial %d: instrumented results diverge\nref:\n%s\ngot:\n%s", src, trial, ref, got)
				}

				// The sink saw the stream: every event that matched a
				// trigger is in a series, and latency sampling at 1 kept
				// up with the counters.
				snap := sink.Snapshot()
				var fired uint64
				for _, tr := range snap.Triggers {
					fired += tr.Count
					if tr.Latency.Count != tr.Count {
						t.Errorf("SampleEvery=1: latency samples %d != count %d", tr.Latency.Count, tr.Count)
					}
				}
				if fired != snap.Events {
					t.Errorf("trigger firings %d != ingested %d", fired, snap.Events)
				}
				if fired == 0 {
					t.Error("instrumented engine recorded no trigger firings")
				}
			}
		})
	}
}

// allocPerEventOpts is allocPerEvent with explicit runtime options.
func allocPerEventOpts(t *testing.T, sql string, cat *schema.Catalog, warm, steady []stream.Event, opts runtime.Options) float64 {
	t.Helper()
	q, err := Prepare(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewToaster(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range warm {
		if err := e.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, ev := range steady {
			if err := e.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	})
	return allocs / float64(len(steady))
}

func metricsAllocWorkload() (*schema.Catalog, string, []stream.Event, []stream.Event) {
	cat := schema.NewCatalog(schema.NewRelation("r", "a:int", "b:int"))
	const groups = 8
	var warm, steady []stream.Event
	for g := 0; g < groups; g++ {
		warm = append(warm, stream.Ins("r", types.NewInt(int64(g)), types.NewInt(int64(g+1))))
	}
	for i := 0; i < 1024; i++ {
		steady = append(steady, stream.Ins("r", types.NewInt(int64(i%groups)), types.NewInt(int64(i%7+1))))
	}
	return cat, "select a, sum(b) from r group by a", warm, steady
}

// TestMetricsZeroAllocSteadyState is the alloc-regression gate for the
// observability layer, both ways:
//
//   - metrics disabled (no sink / NoMetrics): the hot path must be exactly
//     the pre-metrics code — zero allocations per event;
//   - metrics enabled: recording is atomic counters and a sampled
//     monotonic-clock read, so steady state must STILL be zero
//     allocations per event.
func TestMetricsZeroAllocSteadyState(t *testing.T) {
	cat, sql, warm, steady := metricsAllocWorkload()
	if got := allocPerEventOpts(t, sql, cat, warm, steady, runtime.Options{}); got != 0 {
		t.Errorf("disabled (nil sink) allocs/event = %g, want 0", got)
	}
	if got := allocPerEventOpts(t, sql, cat, warm, steady,
		runtime.Options{Metrics: metrics.New(), NoMetrics: true}); got != 0 {
		t.Errorf("disabled (NoMetrics) allocs/event = %g, want 0", got)
	}
	if got := allocPerEventOpts(t, sql, cat, warm, steady,
		runtime.Options{Metrics: metrics.New(), MetricsLabel: "alloc"}); got != 0 {
		t.Errorf("enabled allocs/event = %g, want 0", got)
	}
	if got := allocPerEventOpts(t, sql, cat, warm, steady,
		runtime.Options{Metrics: metrics.NewWithConfig(metrics.Config{SampleEvery: 1}), MetricsLabel: "alloc"}); got != 0 {
		t.Errorf("enabled (SampleEvery=1) allocs/event = %g, want 0", got)
	}
}

// TestMetricsDisabledIsInert: NoMetrics wins over a provided sink — no
// series appear and nothing is counted.
func TestMetricsDisabledIsInert(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("r", "a:int", "b:int"))
	q, err := Prepare("select sum(b) from r", cat)
	if err != nil {
		t.Fatal(err)
	}
	sink := metrics.New()
	e, err := NewToaster(q, runtime.Options{Metrics: sink, NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OnEvent(stream.Ins("r", types.NewInt(1), types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if snap.Events != 0 || len(snap.Triggers) != 0 || len(snap.Maps) != 0 {
		t.Errorf("NoMetrics engine leaked into sink: %+v", snap)
	}
}
