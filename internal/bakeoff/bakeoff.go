// Package bakeoff implements the paper's "DBToaster vs DBMS*" comparison
// harness (Section 4.2): it drives identical update streams through the
// compiled engine and the baselines, measuring tuple throughput and state
// size, verifies that every engine produces the same answer, and profiles
// the compiler itself (compile time, map counts, generated-code size) —
// the content of the demo's performance visualizer.
package bakeoff

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dbtoaster/internal/codegen"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
)

// Config describes one bakeoff run.
type Config struct {
	Name    string
	SQL     string
	Catalog *schema.Catalog
	Events  []stream.Event
	// Engines filters which engines run ("dbtoaster", "dbtoaster-noslice",
	// "naive-reeval", "first-order-ivm", ...); empty means the standard
	// trio.
	Engines []string
	// MaxEventsSlow caps the events fed to the O(n·|D|) baselines so a
	// large stream still finishes; their throughput is measured over the
	// capped prefix. Zero means no cap.
	MaxEventsSlow int
	// Batch feeds engines through OnEventBatch in chunks of this size
	// (amortizing per-call dispatch overhead); zero or one feeds events
	// one at a time through OnEvent.
	Batch int
	// MetricsOut, when non-empty, instruments the dbtoaster contenders
	// with a metrics.Sink (one series label per engine name) and runs a
	// PeriodicWriter that keeps rewriting this path (conventionally a
	// BENCH_*.json file) with the latest steady-state snapshot while the
	// engines feed. The reference engine stays uninstrumented.
	MetricsOut string
	// MetricsInterval is the snapshot cadence (default 1s).
	MetricsInterval time.Duration
	// WALDir enables the "dbtoaster-wal" contender: the compiled engine
	// with every delta written ahead to a log under this directory,
	// measuring the cost of durable ingest. Scratch log directories are
	// created (and removed) per run.
	WALDir string
}

// Row is one engine's measurement.
type Row struct {
	Engine    string
	Events    int
	Elapsed   time.Duration
	PerSec    float64
	MemEntry  int
	ResultOK  bool
	RowsFinal int
}

// Report is a full bakeoff outcome.
type Report struct {
	Config Config
	Rows   []Row
	// Reference holds the agreed-upon final answer (from the compiled
	// engine over the full stream).
	Reference *engine.Result
	// MapStats is the compiled engine's per-map profile (entries, peak,
	// update counts): the paper's per-map overhead breakdown.
	MapStats []runtime.MemStats
	// Metrics holds the final steady-state snapshot when Config.MetricsOut
	// was set (the same value written to the JSON file).
	Metrics *metrics.IntervalSnapshot
}

// buildEngine constructs one contender. opts carries cross-cutting knobs
// (the metrics sink and label); per-engine ablation flags are layered on
// top of it.
func buildEngine(name string, q *engine.Query, opts runtime.Options) (engine.Engine, error) {
	switch name {
	case "dbtoaster":
		return engine.NewToaster(q, opts)
	case "dbtoaster-noslice":
		opts.NoSliceIndex = true
		return engine.NewToaster(q, opts)
	case "naive-reeval":
		return engine.NewNaive(q), nil
	case "first-order-ivm":
		return engine.NewIVM(q), nil
	default:
		return nil, fmt.Errorf("bakeoff: unknown engine %q", name)
	}
}

func slowEngine(name string) bool {
	return name == "naive-reeval" || name == "first-order-ivm"
}

// feed drives evs into an engine, batched when batch > 1.
func feed(e engine.Engine, evs []stream.Event, batch int) error {
	if batch <= 1 {
		for _, ev := range evs {
			if err := e.OnEvent(ev); err != nil {
				return err
			}
		}
		return nil
	}
	for _, chunk := range stream.Batches(evs, batch) {
		if err := e.OnEventBatch(chunk); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the bakeoff. Engines run sequentially over (a prefix of)
// the same stream; answers are compared over a common prefix when slow
// engines are capped.
func Run(cfg Config) (*Report, error) {
	names := cfg.Engines
	if len(names) == 0 {
		names = []string{"dbtoaster", "naive-reeval", "first-order-ivm"}
	}
	q, err := engine.Prepare(cfg.SQL, cfg.Catalog)
	if err != nil {
		return nil, fmt.Errorf("bakeoff %s: %w", cfg.Name, err)
	}
	// Common prefix for answer comparison.
	compareN := len(cfg.Events)
	if cfg.MaxEventsSlow > 0 && cfg.MaxEventsSlow < compareN {
		for _, n := range names {
			if slowEngine(n) {
				compareN = cfg.MaxEventsSlow
				break
			}
		}
	}
	// Reference answer over the comparison prefix (uninstrumented, so the
	// metrics snapshot reflects only the measured contenders).
	refEng, err := buildEngine("dbtoaster", q, runtime.Options{})
	if err != nil {
		return nil, err
	}
	for _, ev := range cfg.Events[:compareN] {
		if err := refEng.OnEvent(ev); err != nil {
			return nil, err
		}
	}
	ref, err := refEng.Results()
	if err != nil {
		return nil, err
	}

	var (
		sink   *metrics.Sink
		writer *metrics.PeriodicWriter
	)
	if cfg.MetricsOut != "" {
		sink = metrics.New()
		writer = metrics.NewPeriodicWriter(sink, cfg.MetricsOut, cfg.MetricsInterval)
		defer writer.Stop()
	}

	rep := &Report{Config: cfg, Reference: ref}
	for _, name := range names {
		opts := runtime.Options{Metrics: sink, MetricsLabel: name}
		var (
			e   engine.Engine
			err error
		)
		if name == "dbtoaster-wal" {
			var w *walEngine
			if w, err = buildWALEngine(cfg, q, opts); err == nil {
				defer w.remove()
				e = w
			}
		} else {
			e, err = buildEngine(name, q, opts)
		}
		if err != nil {
			return nil, err
		}
		evs := cfg.Events
		if slowEngine(name) && cfg.MaxEventsSlow > 0 && cfg.MaxEventsSlow < len(evs) {
			evs = evs[:cfg.MaxEventsSlow]
		}
		start := time.Now()
		if err := feed(e, evs, cfg.Batch); err != nil {
			return nil, fmt.Errorf("bakeoff %s engine %s: %w", cfg.Name, name, err)
		}
		elapsed := time.Since(start)
		ok := true
		rowsFinal := 0
		if len(evs) == compareN {
			got, err := e.Results()
			if err != nil {
				return nil, err
			}
			ok = ref.Equal(got)
			rowsFinal = len(got.Rows)
		} else if res, err := e.Results(); err == nil {
			rowsFinal = len(res.Rows)
		}
		if t, ok := e.(*engine.Toaster); ok && name == "dbtoaster" {
			rep.MapStats = t.Runtime().MemStats()
		}
		perSec := float64(len(evs)) / elapsed.Seconds()
		rep.Rows = append(rep.Rows, Row{
			Engine:    name,
			Events:    len(evs),
			Elapsed:   elapsed,
			PerSec:    perSec,
			MemEntry:  e.MemEntries(),
			ResultOK:  ok,
			RowsFinal: rowsFinal,
		})
	}
	if writer != nil {
		if err := writer.Stop(); err != nil {
			return nil, fmt.Errorf("bakeoff %s: metrics writer: %w", cfg.Name, err)
		}
		rep.Metrics = writer.Last()
	}
	return rep, nil
}

// Print renders the report as the demo's bakeoff table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Config.Name)
	fmt.Fprintf(w, "query: %s\n", strings.Join(strings.Fields(r.Config.SQL), " "))
	fmt.Fprintf(w, "%-22s %10s %12s %14s %10s %8s\n",
		"engine", "events", "elapsed", "tuples/sec", "entries", "agree")
	var base float64
	for _, row := range r.Rows {
		agree := "yes"
		if !row.ResultOK {
			agree = "NO"
		}
		speedup := ""
		if row.Engine == "dbtoaster" {
			base = row.PerSec
		} else if base > 0 && row.PerSec > 0 {
			speedup = fmt.Sprintf("  (dbtoaster %.0fx)", base/row.PerSec)
		}
		fmt.Fprintf(w, "%-22s %10d %12s %14.0f %10d %8s%s\n",
			row.Engine, row.Events, row.Elapsed.Round(time.Microsecond),
			row.PerSec, row.MemEntry, agree, speedup)
	}
	if len(r.MapStats) > 0 {
		fmt.Fprintf(w, "per-map profile (dbtoaster): %-10s %10s %10s %12s\n", "map", "entries", "peak", "updates")
		for _, s := range r.MapStats {
			flags := ""
			if s.Sorted {
				flags = " sorted"
			}
			fmt.Fprintf(w, "%29s %-10s %10d %10d %12d%s\n", "", s.Name, s.Entries, s.Peak, s.Updates, flags)
		}
	}
	if r.Metrics != nil {
		fmt.Fprintf(w, "metrics: %d events instrumented, steady-state %.0f ev/s over last %.2fs -> %s\n",
			r.Metrics.Events, r.Metrics.IntervalEventsPerSec, r.Metrics.IntervalSeconds, r.Config.MetricsOut)
	}
}

// Profile holds compiler-side measurements: the demo's per-query profiling
// (compile time including code generation, map counts, artifact sizes).
type Profile struct {
	SQL            string
	CompileTime    time.Duration
	CodegenTime    time.Duration
	Maps           int
	Triggers       int
	Statements     int
	GeneratedBytes int
	BinaryBytes    int64
}

// CompileProfile measures the compilation pipeline for a query.
func CompileProfile(sqlText string, cat *schema.Catalog) (*Profile, error) {
	start := time.Now()
	q, err := engine.Prepare(sqlText, cat)
	if err != nil {
		return nil, err
	}
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		return nil, err
	}
	compileTime := time.Since(start)

	cgStart := time.Now()
	code, err := codegen.Generate(comp.Program, cat, "views")
	if err != nil {
		return nil, err
	}
	cgTime := time.Since(cgStart)

	stmts := 0
	for _, t := range comp.Program.Triggers {
		stmts += len(t.Stmts)
	}
	p := &Profile{
		SQL:            sqlText,
		CompileTime:    compileTime,
		CodegenTime:    cgTime,
		Maps:           len(comp.Program.Maps),
		Triggers:       len(comp.Program.Triggers),
		Statements:     stmts,
		GeneratedBytes: len(code),
	}
	if exe, err := os.Executable(); err == nil {
		if st, err := os.Stat(exe); err == nil {
			p.BinaryBytes = st.Size()
		}
	}
	return p, nil
}

// Print renders the profile.
func (p *Profile) Print(w io.Writer) {
	fmt.Fprintf(w, "compile profile: %s\n", strings.Join(strings.Fields(p.SQL), " "))
	fmt.Fprintf(w, "  SQL→triggers: %s   codegen: %s\n", p.CompileTime.Round(time.Microsecond), p.CodegenTime.Round(time.Microsecond))
	fmt.Fprintf(w, "  maps: %d   triggers: %d   statements: %d\n", p.Maps, p.Triggers, p.Statements)
	fmt.Fprintf(w, "  generated Go: %d bytes   host binary: %d bytes\n", p.GeneratedBytes, p.BinaryBytes)
}
