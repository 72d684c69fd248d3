// Package dbtoaster is a SQL compiler for high-performance delta processing
// in main-memory databases: it compiles standing aggregate queries into
// recursively incremental view-maintenance programs executed over in-memory
// maps, following Ahmad & Koch, "DBToaster: A SQL Compiler for
// High-Performance Delta Processing in Main-Memory Databases" (VLDB 2009).
//
// Embedded-mode quickstart:
//
//	cat := dbtoaster.NewCatalog(
//		dbtoaster.NewRelation("R", "A:int", "B:int"),
//		dbtoaster.NewRelation("S", "B:int", "C:int"),
//	)
//	view, err := dbtoaster.Compile("select sum(R.A) from R, S where R.B = S.B", cat)
//	...
//	view.Insert("R", dbtoaster.Int(1), dbtoaster.Int(10))
//	view.Insert("S", dbtoaster.Int(10), dbtoaster.Int(7))
//	res, err := view.Results()
//
// The package also exposes the baseline engines the paper benchmarks
// against (full re-evaluation and first-order IVM) behind the same Engine
// interface, Go code generation for compiled triggers, and the trigger
// program's printable form.
package dbtoaster

import (
	"fmt"
	"io"

	"dbtoaster/internal/codegen"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Re-exported core types: the public API is the facade over these.
type (
	// Catalog is a set of base-relation schemas.
	Catalog = schema.Catalog
	// Relation is one base relation's schema.
	Relation = schema.Relation
	// Value is a typed scalar.
	Value = types.Value
	// Tuple is an ordered row of values.
	Tuple = types.Tuple
	// Event is one insert or delete on a base relation.
	Event = stream.Event
	// Result is a query answer: columns plus sorted rows.
	Result = engine.Result
	// Engine is the common interface of the compiled engine and the
	// bakeoff baselines.
	Engine = engine.Engine
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.NewInt
	// Float builds a float value.
	Float = types.NewFloat
	// String builds a string value.
	String = types.NewString
	// Bool builds a boolean value.
	Bool = types.NewBool
)

// NewCatalog builds a catalog from relations.
func NewCatalog(rels ...*Relation) *Catalog { return schema.NewCatalog(rels...) }

// NewRelation builds a relation schema from "name:type" column specs, e.g.
// NewRelation("bids", "price:float", "volume:float").
func NewRelation(name string, cols ...string) *Relation {
	return schema.NewRelation(name, cols...)
}

// Insert builds an insert event.
func Insert(rel string, vals ...Value) Event { return stream.Ins(rel, vals...) }

// Delete builds a delete event.
func Delete(rel string, vals ...Value) Event { return stream.Del(rel, vals...) }

// Option configures compilation.
type Option func(*options)

type options struct {
	rt runtime.Options
}

// WithoutSliceIndexes disables secondary indexes on foreach loops (the
// slice-index ablation; loops degrade to scans).
func WithoutSliceIndexes() Option {
	return func(o *options) { o.rt.NoSliceIndex = true }
}

// View is a standing query maintained by a compiled trigger program: the
// paper's embedded mode. Views are not safe for concurrent use; one update
// stream drives one view.
type View struct {
	query   *engine.Query
	toaster *engine.Toaster
}

// Compile parses, analyzes, and recursively compiles a standing SQL query
// over the catalog, returning a live view fed by Insert/Delete/OnEvent.
func Compile(sql string, cat *Catalog, opts ...Option) (*View, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	q, err := engine.Prepare(sql, cat)
	if err != nil {
		return nil, err
	}
	t, err := engine.NewToaster(q, o.rt)
	if err != nil {
		return nil, err
	}
	return &View{query: q, toaster: t}, nil
}

// OnEvent applies one delta to the view.
func (v *View) OnEvent(ev Event) error { return v.toaster.OnEvent(ev) }

// Insert applies an insert of (vals...) on the relation.
func (v *View) Insert(rel string, vals ...Value) error {
	return v.toaster.OnEvent(stream.Ins(rel, vals...))
}

// Delete applies a delete of (vals...) on the relation.
func (v *View) Delete(rel string, vals ...Value) error {
	return v.toaster.OnEvent(stream.Del(rel, vals...))
}

// Results returns the query's current answer.
func (v *View) Results() (*Result, error) { return v.toaster.Results() }

// SQL returns the view's source query.
func (v *View) SQL() string { return v.query.SQL }

// Program renders the compiled trigger program (maps and event handlers).
func (v *View) Program() string { return v.toaster.Compiled().Program.String() }

// GenerateGo emits the trigger program as standalone Go source in the
// given package — the paper's code-generation path (C++ there, Go here).
func (v *View) GenerateGo(pkg string) (string, error) {
	return codegen.Generate(v.toaster.Compiled().Program, v.query.Catalog, pkg)
}

// MapCount returns the number of materialized maps the compiler created.
func (v *View) MapCount() int { return len(v.toaster.Compiled().Program.Maps) }

// MemEntries returns the total number of live map entries.
func (v *View) MemEntries() int { return v.toaster.MemEntries() }

// Engine exposes the view as a bakeoff Engine.
func (v *View) Engine() Engine { return v.toaster }

// Compiled exposes the compilation artifact for tooling.
func (v *View) Compiled() *compiler.Compiled { return v.toaster.Compiled() }

// MapNames lists the view's materialized maps in creation order — the
// paper's "read-only interface to internal data structures" for ad-hoc
// client-side queries.
func (v *View) MapNames() []string {
	return append([]string{}, v.toaster.Compiled().Program.MapOrder...)
}

// MapEntry is one (key, value) pair of a materialized map.
type MapEntry struct {
	Key   Tuple
	Value float64
}

// Snapshot serializes the view's complete map state — the paper's
// "main-memory database snapshot" — so a standing query can be
// checkpointed and later resumed with Restore instead of replaying its
// stream.
func (v *View) Snapshot(w io.Writer) error { return v.toaster.Runtime().Snapshot(w) }

// Restore replaces the view's state with a snapshot written by a view
// compiled from the same query.
func (v *View) Restore(r io.Reader) error { return v.toaster.Runtime().Restore(r) }

// MapEntries snapshots a materialized map's contents in key order,
// supporting ad-hoc reads beside the standing query (nil for unknown
// maps). The snapshot is a copy; mutating it does not affect the view.
func (v *View) MapEntries(name string) []MapEntry {
	m := v.toaster.Runtime().Map(name)
	if m == nil {
		return nil
	}
	out := make([]MapEntry, 0, m.Len())
	m.ScanSorted(func(t Tuple, val float64) {
		out = append(out, MapEntry{Key: t.Clone(), Value: val})
	})
	return out
}

// MultiView maintains several standing queries in one shared trigger
// program: structurally identical maps are compiled and maintained once
// across all of them (the paper's map sharing, applied across queries).
type MultiView struct {
	multi *engine.MultiToaster
}

// CompileMany compiles several queries over one catalog into a shared
// program. Results are addressed by query index (the order of sqls).
func CompileMany(sqls []string, cat *Catalog, opts ...Option) (*MultiView, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	queries := make([]*engine.Query, len(sqls))
	for i, src := range sqls {
		q, err := engine.Prepare(src, cat)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		queries[i] = q
	}
	m, err := engine.NewToasterMulti(queries, o.rt)
	if err != nil {
		return nil, err
	}
	return &MultiView{multi: m}, nil
}

// OnEvent applies one delta to every query in the group.
func (v *MultiView) OnEvent(ev Event) error { return v.multi.OnEvent(ev) }

// Insert applies an insert to every query in the group.
func (v *MultiView) Insert(rel string, vals ...Value) error {
	return v.multi.OnEvent(stream.Ins(rel, vals...))
}

// Delete applies a delete to every query in the group.
func (v *MultiView) Delete(rel string, vals ...Value) error {
	return v.multi.OnEvent(stream.Del(rel, vals...))
}

// Results returns query i's current answer.
func (v *MultiView) Results(i int) (*Result, error) { return v.multi.Results(i) }

// Len returns the number of queries in the group.
func (v *MultiView) Len() int { return v.multi.Len() }

// MapCount returns the number of maps in the shared program (shared maps
// counted once).
func (v *MultiView) MapCount() int { return v.multi.MapCount() }

// MemEntries returns the shared program's total live map entries.
func (v *MultiView) MemEntries() int { return v.multi.MemEntries() }

// BaselineKind selects a comparison engine.
type BaselineKind int

// Baseline engines from the paper's bakeoff.
const (
	// NaiveReeval re-runs the full query through a Volcano-style plan
	// interpreter on every delta (DBMS-style evaluation).
	NaiveReeval BaselineKind = iota
	// FirstOrderIVM maintains the query with classic single-level delta
	// queries joined against base tables (stream-engine-style).
	FirstOrderIVM
)

// NewBaseline builds a baseline engine for the same query, for
// side-by-side comparison with a compiled View.
func NewBaseline(kind BaselineKind, sql string, cat *Catalog) (Engine, error) {
	q, err := engine.Prepare(sql, cat)
	if err != nil {
		return nil, err
	}
	if kind == NaiveReeval {
		return engine.NewNaive(q), nil
	}
	return engine.NewIVM(q), nil
}
