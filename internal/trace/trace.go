// Package trace implements the paper's debugger: step-by-step tracing of
// delta processing, showing each trigger statement as it executes and the
// map entries it changed (Figure 4's stepping/tracing tool, rendered as
// text instead of a GUI).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Tracer wraps a compiled query with per-statement tracing.
type Tracer struct {
	q   *engine.Query
	rt  *runtime.Engine
	out io.Writer
	// step, when non-nil, is invoked before each traced statement runs;
	// returning false aborts tracing output (execution continues).
	step func() bool
}

// New compiles the query with tracing enabled, writing the trace to out.
func New(q *engine.Query, out io.Writer) (*Tracer, error) {
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		return nil, err
	}
	t := &Tracer{q: q, out: out}
	rt, err := runtime.NewEngine(comp.Program, runtime.Options{StmtWrapper: t.wrap})
	if err != nil {
		return nil, err
	}
	t.rt = rt
	return t, nil
}

// SetStepFunc installs an interactive gate called before every statement.
func (t *Tracer) SetStepFunc(f func() bool) { t.step = f }

// OnEvent processes one delta with full tracing.
func (t *Tracer) OnEvent(ev stream.Event) error {
	rel, ok := t.q.Catalog.Relation(ev.Relation)
	if !ok {
		return fmt.Errorf("trace: unknown relation %q", ev.Relation)
	}
	if err := rel.Validate(ev.Args); err != nil {
		return err
	}
	fmt.Fprintf(t.out, "event %s\n", ev)
	return t.rt.OnEvent(ev.Relation, ev.Op == stream.Insert, rel.Coerce(ev.Args))
}

// wrap executes one statement, printing it and the map entries it changed.
func (t *Tracer) wrap(stmt *ir.Stmt, run func()) {
	if t.step != nil && !t.step() {
		run()
		return
	}
	target := t.rt.Map(stmt.Target)
	before := snapshot(target)
	run()
	after := snapshot(target)
	fmt.Fprintf(t.out, "  stmt: %s\n", stmt)
	changes := diff(before, after)
	if len(changes) == 0 {
		fmt.Fprintf(t.out, "    (no change)\n")
	}
	for _, c := range changes {
		fmt.Fprintf(t.out, "    %s%s: %v -> %v\n", stmt.Target, c.key, c.before, c.after)
	}
}

type change struct {
	key           string
	before, after float64
}

func snapshot(m *runtime.Map) map[string]float64 {
	out := map[string]float64{}
	m.Scan(func(t types.Tuple, v float64) {
		out[t.String()] = v
	})
	return out
}

func diff(before, after map[string]float64) []change {
	var out []change
	for k, v := range after {
		if before[k] != v {
			out = append(out, change{key: k, before: before[k], after: v})
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok {
			out = append(out, change{key: k, before: v, after: 0})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// DumpMaps prints every map's current contents in sorted order.
func (t *Tracer) DumpMaps() {
	for _, name := range t.rt.Program().MapOrder {
		m := t.rt.Map(name)
		fmt.Fprintf(t.out, "map %s (%d entries)\n", name, m.Len())
		m.ScanSorted(func(tp types.Tuple, v float64) {
			key := tp.String()
			if len(tp) == 0 {
				key = "()"
			}
			fmt.Fprintf(t.out, "  %s = %v\n", key, v)
		})
	}
}

// Program returns the compiled program rendering.
func (t *Tracer) Program() string { return t.rt.Program().String() }

// Summary renders a one-line state summary.
func (t *Tracer) Summary() string {
	var parts []string
	for _, s := range t.rt.MemStats() {
		parts = append(parts, fmt.Sprintf("%s=%d", s.Name, s.Entries))
	}
	return strings.Join(parts, " ")
}
