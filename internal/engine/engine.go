// Package engine provides the three standing-query engines the paper's
// bakeoff compares, behind one interface:
//
//   - Toaster: the paper's system — recursively compiled trigger programs
//     over in-memory maps (internal/compiler + internal/runtime);
//   - Naive: a DBMS-style baseline that re-evaluates the full query
//     through the Volcano plan interpreter on every delta;
//   - FirstOrderIVM: a stream-engine-style baseline maintaining the query
//     with classic single-level delta queries, executed as joins against
//     base tables.
//
// All three produce byte-identical Result tables on the same stream; the
// property tests in this package drive random queries and random streams
// through all of them and require exact agreement.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/types"
)

// Engine is a standing-query processor fed by an update stream.
type Engine interface {
	// Name identifies the engine in bakeoff output.
	Name() string
	// OnEvent applies one delta.
	OnEvent(ev stream.Event) error
	// OnEventBatch applies a batch of deltas in stream order, producing
	// the same state as per-event calls; engines with asynchronous or
	// per-call dispatch overhead amortize it across the batch.
	OnEventBatch(evs []stream.Event) error
	// Results returns the standing query's current answer.
	Results() (*Result, error)
	// MemEntries approximates state size as the number of materialized
	// entries (map entries or stored tuples).
	MemEntries() int
}

// Result is a query answer: named columns and sorted rows.
type Result struct {
	// Query, when set, names the standing query the answer belongs to; a
	// server hosting several registered queries sets it so rendered tables
	// (and anything quoting their map names) are unambiguous.
	Query   string
	Columns []string
	Rows    []types.Tuple
}

// String renders the result as an aligned table: every cell is padded to
// its column's width, so values line up under their headers. When Query is
// set the table is prefixed with a "-- query: <name>" line.
func (r *Result) String() string {
	width := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		width[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[ri][i] = s
			if i < len(width) && len(s) > width[i] {
				width[i] = len(s)
			}
		}
	}
	var b strings.Builder
	if r.Query != "" {
		b.WriteString("-- query: ")
		b.WriteString(r.Query)
		b.WriteByte('\n')
	}
	writeRow := func(parts []string) {
		for i, s := range parts {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(s)
			if i < len(parts)-1 {
				w := 0
				if i < len(width) {
					w = width[i]
				}
				for pad := len(s); pad < w; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Equal compares two results exactly (same columns, same sorted rows).
func (r *Result) Equal(o *Result) bool {
	if len(r.Columns) != len(o.Columns) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Columns {
		if r.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range r.Rows {
		if !tupleEqualSQL(r.Rows[i], o.Rows[i]) {
			return false
		}
	}
	return true
}

// tupleEqualSQL compares rows with numeric coercion (int 3 == float 3.0)
// and NULL == NULL (engines may differ in int-vs-float kinds for counts).
func tupleEqualSQL(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() && b[i].IsNull() {
			continue
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Query is a prepared standing query shared by all engines.
type Query struct {
	SQL        string
	Catalog    *schema.Catalog
	Analyzed   *sql.Analyzed
	Translated *translate.Query
}

// Prepare parses, analyzes, and translates a SQL query once.
func Prepare(src string, cat *schema.Catalog) (*Query, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := sql.Analyze(stmt, cat)
	if err != nil {
		return nil, err
	}
	tq, err := translate.Translate("q", a)
	if err != nil {
		return nil, err
	}
	return &Query{SQL: src, Catalog: cat, Analyzed: a, Translated: tq}, nil
}

// coerce validates and widens an event's tuple against the catalog.
func coerce(cat *schema.Catalog, ev stream.Event) (types.Tuple, error) {
	ad, err := admit(cat, ev)
	return ad.Args, err
}

// admit validates and widens an event against the catalog and stamps it
// with its relation's ordinal and spelling there.
func admit(cat *schema.Catalog, ev stream.Event) (stream.Event, error) {
	rel, ord, ok := cat.Lookup(ev.Relation)
	if !ok {
		return stream.Event{}, fmt.Errorf("engine: unknown relation %q", ev.Relation)
	}
	if err := rel.Validate(ev.Args); err != nil {
		return stream.Event{}, err
	}
	return stream.Event{Op: ev.Op, Ord: int32(ord), Relation: rel.Name, Args: rel.Coerce(ev.Args)}, nil
}

// relationNames lists a catalog's relation names in ordinal order, the
// layout an engine's dispatch table takes for it (nil for no catalog).
func relationNames(cat *schema.Catalog) []string {
	if cat == nil {
		return nil
	}
	rels := cat.Relations()
	names := make([]string, len(rels))
	for i, r := range rels {
		names[i] = r.Name
	}
	return names
}

// admittedEngine is an engine that applies an admitted batch as it is,
// without admitting its events again.
type admittedEngine interface {
	applyAdmitted(stream.Admitted) error
}

// ApplyAdmitted applies a batch admitted where it entered — the server's
// session parser or the WAL reader — to eng: a Toaster takes it without
// re-admitting it, any other engine through OnEventBatch.
func ApplyAdmitted(eng Engine, b stream.Admitted) error {
	if a, ok := eng.(admittedEngine); ok {
		return a.applyAdmitted(b)
	}
	return eng.OnEventBatch(b.Events)
}

// --- Shared result assembly ---

// compValueFn returns the value of component compIdx of query q for the
// given group tuple (group values in q.GroupVars order).
type compValueFn func(q *translate.Query, compIdx int, group types.Tuple) (types.Value, error)

// groupsFn enumerates the existing groups of q (group values in
// q.GroupVars order); queries without GROUP BY yield one empty group.
type groupsFn func(q *translate.Query) ([]types.Tuple, error)

// buildResult assembles the standard Result for q given accessors.
func buildResult(q *translate.Query, groups groupsFn, comp compValueFn) (*Result, error) {
	res := &Result{}
	for _, it := range q.Items {
		res.Columns = append(res.Columns, it.Name)
	}
	gs, err := groups(q)
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		if q.Having != nil {
			keep, err := evalRExpr(q, q.Having, g, comp)
			if err != nil {
				return nil, err
			}
			if !keep.Bool() {
				continue
			}
		}
		row := make(types.Tuple, len(q.Items))
		for i, it := range q.Items {
			v, err := evalRExpr(q, it.Expr, g, comp)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Compare(res.Rows[j]) < 0 })
	return res, nil
}

// evalRExpr evaluates a result expression for one group.
func evalRExpr(q *translate.Query, e translate.RExpr, group types.Tuple, comp compValueFn) (types.Value, error) {
	switch e := e.(type) {
	case *translate.RConst:
		return e.Value, nil
	case *translate.RGroup:
		return group[e.Idx], nil
	case *translate.RComp:
		return comp(q, e.Idx, group)
	case *translate.RSub:
		for i, s := range q.Subqueries {
			if s.Var == e.Var {
				return subScalar(q.Subqueries[i].Query, comp)
			}
		}
		return types.Null, fmt.Errorf("engine: unknown subquery variable %s", e.Var)
	case *translate.RNeg:
		v, err := evalRExpr(q, e.X, group, comp)
		if err != nil {
			return types.Null, err
		}
		return types.Neg(v), nil
	case *translate.RArith:
		l, err := evalRExpr(q, e.L, group, comp)
		if err != nil {
			return types.Null, err
		}
		r, err := evalRExpr(q, e.R, group, comp)
		if err != nil {
			return types.Null, err
		}
		switch e.Op {
		case '+':
			return types.Add(l, r), nil
		case '-':
			return types.Sub(l, r), nil
		case '*':
			return types.Mul(l, r), nil
		default:
			return types.Div(l, r), nil
		}
	case *translate.RCmp:
		l, err := evalRExpr(q, e.L, group, comp)
		if err != nil {
			return types.Null, err
		}
		r, err := evalRExpr(q, e.R, group, comp)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(e.Op.Eval(l, r)), nil
	case *translate.RLogic:
		l, err := evalRExpr(q, e.L, group, comp)
		if err != nil {
			return types.Null, err
		}
		r, err := evalRExpr(q, e.R, group, comp)
		if err != nil {
			return types.Null, err
		}
		if e.Op == '&' {
			return types.NewBool(l.Bool() && r.Bool()), nil
		}
		return types.NewBool(l.Bool() || r.Bool()), nil
	case *translate.RNot:
		v, err := evalRExpr(q, e.X, group, comp)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(!v.Bool()), nil
	}
	return types.Null, fmt.Errorf("engine: unknown result expression %T", e)
}

// subScalar evaluates a scalar subquery's single item (its group is empty).
func subScalar(sub *translate.Query, comp compValueFn) (types.Value, error) {
	return evalRExpr(sub, sub.Items[0].Expr, nil, comp)
}

// subValueEnv computes all (transitive) subquery placeholder values of q
// as an algebra environment — the baselines bind these before evaluating
// defining terms that still contain subquery comparisons.
func subValueEnv(q *translate.Query, comp compValueFn) (algebra.Env, error) {
	env := algebra.Env{}
	var fill func(*translate.Query) error
	fill = func(qq *translate.Query) error {
		for _, s := range qq.Subqueries {
			if err := fill(s.Query); err != nil {
				return err
			}
			v, err := subScalar(s.Query, comp)
			if err != nil {
				return err
			}
			env[s.Var] = v
		}
		return nil
	}
	if err := fill(q); err != nil {
		return nil, err
	}
	return env, nil
}
