// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md for
// the experiment index and measured results):
//
//   - BenchmarkFinancial*: the financial-application bakeoff (Fig. 4) —
//     per-engine tuple throughput on order-book delta streams.
//   - BenchmarkWarehouse*: the warehouse loading+analysis bakeoff.
//   - BenchmarkPaperQuery*: the running example of Figure 2, including
//     per-event-type cost (the demo's per-map profiling).
//   - BenchmarkCompile*/BenchmarkCodegen: §4.2's compile-time profile.
//   - BenchmarkAblation*: design-choice ablations from DESIGN.md
//     (slice indexes, recursion depth vs first-order IVM, map sharing).
package dbtoaster_test

import (
	"fmt"
	"testing"

	"dbtoaster/internal/bakeoff"
	"dbtoaster/internal/codegen"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
	"dbtoaster/internal/types"
)

// benchEngines is the bakeoff lineup: the compiled engine and both
// baselines, in the paper's comparison order.
var benchEngines = []string{"dbtoaster", "first-order-ivm", "naive-reeval"}

func newBenchEngine(b *testing.B, name, sql string, cat *schema.Catalog) engine.Engine {
	b.Helper()
	q, err := engine.Prepare(sql, cat)
	if err != nil {
		b.Fatal(err)
	}
	var e engine.Engine
	switch name {
	case "dbtoaster":
		e, err = engine.NewToaster(q, runtime.Options{})
	case "dbtoaster-noslice":
		e, err = engine.NewToaster(q, runtime.Options{NoSliceIndex: true})
	case "first-order-ivm":
		e = engine.NewIVM(q)
	case "naive-reeval":
		e = engine.NewNaive(q)
	default:
		b.Fatalf("unknown engine %s", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// runStream replays events cyclically for b.N iterations and reports
// final state size; the deletions in every workload keep state bounded
// under replay.
func runStream(b *testing.B, e engine.Engine, events []stream.Event) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.OnEvent(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.MemEntries()), "entries")
}

func benchBakeoff(b *testing.B, sql string, cat *schema.Catalog, events []stream.Event) {
	b.Helper()
	for _, name := range benchEngines {
		b.Run(name, func(b *testing.B) {
			runStream(b, newBenchEngine(b, name, sql, cat), events)
		})
	}
}

// --- Financial application (Fig. 4 bakeoff, §4 claims) ---

func financialEvents(b *testing.B) []stream.Event {
	b.Helper()
	return orderbook.NewGenerator(1, 400).Events(20000)
}

func BenchmarkFinancialVWAPThreshold(b *testing.B) {
	benchBakeoff(b, orderbook.QueryVWAPThreshold, orderbook.Catalog(), financialEvents(b))
}

func BenchmarkFinancialTurnover(b *testing.B) {
	benchBakeoff(b, orderbook.QueryBidTurnover, orderbook.Catalog(), financialEvents(b))
}

func BenchmarkFinancialBrokerActivity(b *testing.B) {
	benchBakeoff(b, orderbook.QueryBrokerActivity, orderbook.Catalog(), financialEvents(b))
}

// BenchmarkFinancialCorrelatedVWAP measures the treap-based processor for
// the correlated VWAP query (the documented substitution).
func BenchmarkFinancialCorrelatedVWAP(b *testing.B) {
	events := financialEvents(b)
	v := orderbook.NewVWAP("bids", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.OnEvent(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		if i%16 == 0 {
			_ = v.Value()
		}
	}
}

// --- Warehouse loading (Fig. 4 bakeoff, §4 claims) ---

func warehouseEvents(b *testing.B) []stream.Event {
	b.Helper()
	return tpch.NewGenerator(1, 2).Workload(20000)
}

func BenchmarkWarehouseSSB41(b *testing.B) {
	benchBakeoff(b, tpch.QuerySSB41, tpch.Catalog(), warehouseEvents(b))
}

func BenchmarkWarehouseSSB11(b *testing.B) {
	benchBakeoff(b, tpch.QuerySSB11, tpch.Catalog(), warehouseEvents(b))
}

func BenchmarkWarehouseLoadMonitor(b *testing.B) {
	benchBakeoff(b, tpch.QueryLoadMonitor, tpch.Catalog(), warehouseEvents(b))
}

// --- The paper's running example (Figure 2 query) ---

const paperSQL = "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C"

func rstCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("T", "C:int", "D:int"),
	)
}

// rstEvents builds a bounded R/S/T delta stream: two out of three events
// insert, every third deletes the oldest live tuple, so replaying the
// stream keeps state (and the baselines' re-evaluation cost) bounded.
func rstEvents(n int) []stream.Event {
	out := make([]stream.Event, 0, n)
	var live []stream.Event
	for i := 0; len(out) < n; i++ {
		if i%3 == 2 && len(live) > 30 {
			old := live[0]
			live = live[1:]
			out = append(out, stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
			continue
		}
		ev := stream.Event{
			Op:       stream.Insert,
			Relation: []string{"R", "S", "T"}[i%3],
			Args:     types.Tuple{types.NewInt(int64(i % 23)), types.NewInt(int64(i % 13))},
		}
		live = append(live, ev)
		out = append(out, ev)
	}
	// Close the loop: delete whatever remains so cyclic replay is neutral.
	for _, ev := range live {
		out = append(out, stream.Event{Op: stream.Delete, Relation: ev.Relation, Args: ev.Args})
	}
	return out
}

func BenchmarkPaperQueryRST(b *testing.B) {
	benchBakeoff(b, paperSQL, rstCatalog(), rstEvents(9000))
}

// BenchmarkPaperPerEventType isolates the per-trigger cost of each event
// type — the demo's per-map overhead profile (S events are O(1); R and T
// loop over q1 slices).
func BenchmarkPaperPerEventType(b *testing.B) {
	for _, rel := range []string{"R", "S", "T"} {
		b.Run("+"+rel, func(b *testing.B) {
			e := newBenchEngine(b, "dbtoaster", paperSQL, rstCatalog())
			// Preload some state so loops have work (stopping before the
			// stream's closing deletes).
			pre := rstEvents(3000)
			for _, ev := range pre[:2000] {
				if err := e.OnEvent(ev); err != nil {
					b.Fatal(err)
				}
			}
			ins := stream.Event{Op: stream.Insert, Relation: rel,
				Args: types.Tuple{types.NewInt(5), types.NewInt(5)}}
			del := stream.Event{Op: stream.Delete, Relation: rel,
				Args: types.Tuple{types.NewInt(5), types.NewInt(5)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := ins
				if i%2 == 1 {
					ev = del
				}
				if err := e.OnEvent(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Compile-time profile (§4.2) ---

func BenchmarkCompile(b *testing.B) {
	cases := []struct {
		name string
		sql  string
		cat  *schema.Catalog
	}{
		{"rst", paperSQL, rstCatalog()},
		{"vwap", orderbook.QueryVWAPThreshold, orderbook.Catalog()},
		{"ssb41", tpch.QuerySSB41, tpch.Catalog()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := engine.Prepare(c.sql, c.cat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := compiler.Compile(q.Translated); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodegen(b *testing.B) {
	q, err := engine.Prepare(tpch.QuerySSB41, tpch.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(comp.Program, tpch.Catalog(), "views"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationSliceIndex: secondary indexes on foreach loops vs full
// map scans.
func BenchmarkAblationSliceIndex(b *testing.B) {
	events := rstEvents(9000)
	for _, name := range []string{"dbtoaster", "dbtoaster-noslice"} {
		b.Run(name, func(b *testing.B) {
			runStream(b, newBenchEngine(b, name, paperSQL, rstCatalog()), events)
		})
	}
}

// BenchmarkAblationRecursionDepth: chain joins of growing width. The
// compiled engine's per-event cost stays flat while first-order IVM pays
// for re-joining the remaining relations.
func BenchmarkAblationRecursionDepth(b *testing.B) {
	for _, width := range []int{2, 3, 4} {
		rels := make([]*schema.Relation, width)
		var from, where string
		for i := 0; i < width; i++ {
			rels[i] = schema.NewRelation(fmt.Sprintf("C%d", i), "X:int", "Y:int")
			if i > 0 {
				from += ", "
				if i > 1 {
					where += " and "
				}
				where += fmt.Sprintf("C%d.Y = C%d.X", i-1, i)
			}
			from += fmt.Sprintf("C%d", i)
		}
		sql := fmt.Sprintf("select sum(C0.X * C%d.Y) from %s", width-1, from)
		if where != "" {
			sql += " where " + where
		}
		cat := schema.NewCatalog(rels...)
		events := make([]stream.Event, 0, 6000)
		for i := 0; len(events) < 6000; i++ {
			rel := fmt.Sprintf("C%d", i%width)
			events = append(events, stream.Event{Op: stream.Insert, Relation: rel,
				Args: types.Tuple{types.NewInt(int64(i % 13)), types.NewInt(int64(i % 13))}})
			if i%5 == 4 {
				events = append(events, stream.Event{Op: stream.Delete, Relation: rel,
					Args: types.Tuple{types.NewInt(int64(i % 13)), types.NewInt(int64(i % 13))}})
			}
		}
		for _, name := range []string{"dbtoaster", "first-order-ivm"} {
			b.Run(fmt.Sprintf("chain%d/%s", width, name), func(b *testing.B) {
				runStream(b, newBenchEngine(b, name, sql, cat), events)
			})
		}
	}
}

// BenchmarkAblationMapSharing verifies compilation scales when sharing
// kicks in: compiling the paper query yields 6 maps, not the 8 a
// sharing-free compiler would materialize; here we measure the compile
// pipeline with sharing active (the counterfactual is structural, checked
// in compiler tests).
func BenchmarkAblationMapSharing(b *testing.B) {
	p, err := bakeoff.CompileProfile(paperSQL, rstCatalog())
	if err != nil {
		b.Fatal(err)
	}
	if p.Maps != 6 {
		b.Fatalf("expected 6 shared maps, got %d", p.Maps)
	}
	for i := 0; i < b.N; i++ {
		if _, err := bakeoff.CompileProfile(paperSQL, rstCatalog()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead (metrics layer) ---

// BenchmarkMetricsOverhead measures the instrumentation layer's hot-path
// cost on representative workloads: the identical engine with metrics
// disabled (nil sink — the pre-metrics code path), enabled with the
// default 1-in-64 latency sampling, and enabled with latency timestamps on
// every firing. scripts/check.sh runs the off/on pair as a smoke gate and
// fails on throughput regression beyond the budget or any new steady-state
// allocation.
func BenchmarkMetricsOverhead(b *testing.B) {
	workloads := []struct {
		name   string
		sql    string
		cat    *schema.Catalog
		events []stream.Event
	}{
		{"Turnover", orderbook.QueryBidTurnover, orderbook.Catalog(), financialEvents(b)},
		{"SSB11", tpch.QuerySSB11, tpch.Catalog(), warehouseEvents(b)},
	}
	modes := []struct {
		name string
		opts func() runtime.Options
	}{
		{"off", func() runtime.Options { return runtime.Options{} }},
		{"on", func() runtime.Options {
			return runtime.Options{Metrics: metrics.New(), MetricsLabel: "bench"}
		}},
		{"on-sample1", func() runtime.Options {
			return runtime.Options{
				Metrics:      metrics.NewWithConfig(metrics.Config{SampleEvery: 1}),
				MetricsLabel: "bench",
			}
		}},
	}
	for _, w := range workloads {
		q, err := engine.Prepare(w.sql, w.cat)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			b.Run(w.name+"/"+m.name, func(b *testing.B) {
				e, err := engine.NewToaster(q, m.opts())
				if err != nil {
					b.Fatal(err)
				}
				runStream(b, e, w.events)
			})
		}
	}
}
