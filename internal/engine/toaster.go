package engine

import (
	"fmt"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/types"
)

// viewReader resolves component values and group enumerations from a
// runtime engine's maps plus the query→info directory; it backs the
// single-query Toaster and the shared-program MultiToaster.
type viewReader struct {
	views   *runtime.Engine
	byQuery map[*translate.Query]*compiler.QueryInfo
}

// Toaster is the paper's engine: recursively compiled triggers over maps.
type Toaster struct {
	viewReader
	rt       *runtime.Engine
	q        *Query
	compiled *compiler.Compiled
	name     string
}

// NewToaster compiles the query and builds its runtime.
func NewToaster(q *Query, opts runtime.Options) (*Toaster, error) {
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		return nil, err
	}
	return NewToasterCompiled(q, comp, opts)
}

// NewToasterCompiled builds a Toaster from an existing compilation
// artifact. The registry's hot-swap path uses it to rebuild a caught-up
// engine (transferring map state via opts.MapSource) without recompiling.
func NewToasterCompiled(q *Query, comp *compiler.Compiled, opts runtime.Options) (*Toaster, error) {
	rt, err := runtime.NewEngine(comp.Program, opts)
	if err != nil {
		return nil, err
	}
	rt.BindRelations(relationNames(q.Catalog))
	t := &Toaster{
		viewReader: viewReader{views: rt, byQuery: map[*translate.Query]*compiler.QueryInfo{}},
		rt:         rt,
		q:          q,
		compiled:   comp,
	}
	t.index(comp.Root)
	t.name = "dbtoaster"
	if opts.NoSliceIndex {
		t.name = "dbtoaster-noslice"
	}
	return t, nil
}

// index registers a query tree in the reader's directory.
func (v *viewReader) index(info *compiler.QueryInfo) {
	v.byQuery[info.Query] = info
	for _, s := range info.Subs {
		v.index(s)
	}
}

// Name implements Engine.
func (t *Toaster) Name() string { return t.name }

// Compiled exposes the compilation artifact (for tooling and tests).
func (t *Toaster) Compiled() *compiler.Compiled { return t.compiled }

// Runtime exposes the underlying runtime engine.
func (t *Toaster) Runtime() *runtime.Engine { return t.rt }

// OnEvent implements Engine.
func (t *Toaster) OnEvent(ev stream.Event) error {
	args, err := coerce(t.q.Catalog, ev)
	if err != nil {
		return err
	}
	return t.rt.OnEvent(ev.Relation, ev.Op == stream.Insert, args)
}

// applyAdmitted applies an admitted batch. Admitted against this query's
// catalog, each event finds its trigger by ordinal; against another, by
// name. Either way the batch was checked and widened where it entered, so
// OnEvent's admission is not repeated.
func (t *Toaster) applyAdmitted(b stream.Admitted) error {
	if b.Catalog != t.q.Catalog {
		for i := range b.Events {
			ev := &b.Events[i]
			if err := t.rt.OnEvent(ev.Relation, ev.Op == stream.Insert, ev.Args); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range b.Events {
		ev := &b.Events[i]
		if err := t.rt.OnEventOrd(int(ev.Ord), ev.Op == stream.Insert, ev.Args); err != nil {
			return err
		}
	}
	return nil
}

// OnEventBatch implements Engine. The runtime applies events synchronously,
// so batching here is a straight loop with no extra buffering.
func (t *Toaster) OnEventBatch(evs []stream.Event) error {
	for _, ev := range evs {
		if err := t.OnEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// MemEntries implements Engine. Maps adopted from another query are not
// counted: their entries belong to the owning engine's footprint, and
// counting them per borrower would hide exactly the sharing the registry
// exists to provide.
func (t *Toaster) MemEntries() int {
	n := 0
	for _, s := range t.rt.MemStats() {
		if s.Shared {
			continue
		}
		n += s.Entries
	}
	return n
}

// OwnedFootprint reports owned entries and approximate bytes without
// allocating — the registry's per-event quota probe.
func (t *Toaster) OwnedFootprint() (int, uint64) {
	return t.rt.OwnedFootprint()
}

// MapStats reports per-map storage statistics (including adopted maps,
// flagged Shared) for the server's STATS body.
func (t *Toaster) MapStats() []runtime.MemStats { return t.rt.MemStats() }

// Results implements Engine.
func (t *Toaster) Results() (*Result, error) {
	return buildResult(t.q.Translated, t.groups, t.compValue)
}

func (t *viewReader) groups(q *translate.Query) ([]types.Tuple, error) {
	if len(q.GroupVars) == 0 {
		return []types.Tuple{nil}, nil
	}
	info := t.byQuery[q]
	ci := info.Comps[q.ExistsIdx]
	m := t.views.Map(ci.MapName)
	seen := map[types.Key]types.Tuple{}
	m.Scan(func(tp types.Tuple, _ float64) {
		g := make(types.Tuple, len(ci.GroupPos))
		for i, p := range ci.GroupPos {
			g[i] = tp[p]
		}
		seen[types.EncodeKey(g)] = g
	})
	var out []types.Tuple
	for _, g := range seen {
		// A candidate group exists only if its (possibly thresholded)
		// support count is non-zero.
		v, err := t.compValue(q, q.ExistsIdx, g)
		if err != nil {
			return nil, err
		}
		if v.Float() != 0 {
			out = append(out, g)
		}
	}
	return out, nil
}

func (t *viewReader) compValue(q *translate.Query, idx int, group types.Tuple) (types.Value, error) {
	info := t.byQuery[q]
	ci := info.Comps[idx]
	m := t.views.Map(ci.MapName)
	kind := q.Components[idx].Kind
	switch {
	case ci.Threshold != nil:
		return t.thresholdValue(q, ci, group)
	case kind == translate.CompMin || kind == translate.CompMax:
		if !m.Decl().Sorted {
			return types.Null, fmt.Errorf("engine: map %s is not sorted", ci.MapName)
		}
		lo := group
		hi := append(append(types.Tuple{}, group...), types.PosInf)
		if kind == translate.CompMin {
			if k, _, ok := m.First(lo, hi, false, false); ok {
				return k[ci.ExtPos], nil
			}
			return types.Null, nil
		}
		if k, _, ok := m.Last(lo, hi, false, false); ok {
			return k[ci.ExtPos], nil
		}
		return types.Null, nil
	default:
		key := make(types.Tuple, len(ci.GroupPos))
		for i, p := range ci.GroupPos {
			key[p] = group[i]
		}
		return types.NewFloat(m.Get(key)), nil
	}
}

// thresholdValue answers a rewritten subquery comparison as a sorted range
// aggregate: Σ entries whose measure key compares against the subquery's
// current value.
func (t *viewReader) thresholdValue(q *translate.Query, ci compiler.CompInfo, group types.Tuple) (types.Value, error) {
	m := t.views.Map(ci.MapName)
	if !m.Decl().Sorted {
		return types.Null, fmt.Errorf("engine: threshold map %s is not sorted", ci.MapName)
	}
	env, err := subValueEnv(q, t.compValue)
	if err != nil {
		return types.Null, err
	}
	tau, err := algebra.EvalVal(ci.Threshold.Expr, env)
	if err != nil {
		return types.Null, err
	}
	prefix := group
	atTau := append(append(types.Tuple{}, prefix...), tau)
	top := append(append(types.Tuple{}, prefix...), types.PosInf)
	var v float64
	switch ci.Threshold.Op {
	case algebra.CmpGt:
		v = m.RangeSum(atTau, top, true, false)
	case algebra.CmpGte:
		v = m.RangeSum(atTau, top, false, false)
	case algebra.CmpLt:
		v = m.RangeSum(prefix, atTau, false, true)
	case algebra.CmpLte:
		v = m.RangeSum(prefix, atTau, false, false)
	case algebra.CmpEq:
		v = m.RangeSum(atTau, atTau, false, false)
	case algebra.CmpNeq:
		v = m.RangeSum(prefix, top, false, false) - m.RangeSum(atTau, atTau, false, false)
	}
	return types.NewFloat(v), nil
}
