// Package ir defines the trigger-program intermediate representation the
// recursive compiler emits: per-event handlers made of statements that add
// a delta expression into a map entry, optionally under foreach loops that
// enumerate slices of other maps. The runtime executes programs either by
// walking this IR or through pre-compiled closures; internal/codegen prints
// a program as standalone Go source (the paper emits C++).
package ir

import (
	"fmt"
	"strings"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/types"
)

// Program is the full compiled artifact for one standing query.
type Program struct {
	QueryName string
	SQL       string

	// Maps are all materialized view maps, including the result maps,
	// keyed by name; MapOrder lists names in creation order.
	Maps     map[string]*MapDecl
	MapOrder []string

	// Triggers hold the event handlers, one per (relation, insert/delete).
	Triggers []*Trigger
}

// MapDecl declares one in-memory map.
type MapDecl struct {
	Name string
	// Keys are the canonical key variable names (k0, k1, ... or the
	// query's group variables for result maps).
	Keys []algebra.Var
	// Definition is the closed-form defining query: an AggSum over base
	// relations whose group variables are exactly Keys. Map-invariant
	// tests evaluate it with the oracle after every event.
	Definition *algebra.AggSum
	// Level is the recursion depth at which the map was introduced
	// (0 = result map of the standing query).
	Level int
	// Sorted requests an ordered index (the map's slots in key order) so
	// the runtime can answer extremum and threshold range reads.
	Sorted bool
	// KeyKinds[i] is the statically inferred kind of key column i, filled
	// by InferTypes from the catalog and the map's defining algebra. Nil
	// on untyped programs; an entry may be KindNull when inference found
	// conflicting kinds for a position (the runtime then falls back to
	// generic storage for the map).
	KeyKinds []types.Kind
	// ValueKind is the inferred kind of the aggregate value: KindInt when
	// every contribution to the sum is integral, KindFloat otherwise,
	// KindNull on untyped programs. Storage accumulates in float64 either
	// way (lookups read as float, matching the generic engine); the
	// annotation types generated code and result rendering.
	ValueKind types.Kind
}

// Arity returns the number of key columns.
func (m *MapDecl) Arity() int { return len(m.Keys) }

// Trigger is the handler for one event type on one relation.
type Trigger struct {
	Relation string
	Insert   bool
	Params   []algebra.Var
	Stmts    []*Stmt
	// ParamKinds[i] is the catalog kind of the i-th event column, filled
	// by InferTypes (nil on untyped programs).
	ParamKinds []types.Kind
}

// Name renders "+R" / "-R".
func (t *Trigger) Name() string {
	if t.Insert {
		return "+" + t.Relation
	}
	return "-" + t.Relation
}

// Stmt adds Delta into Target[Keys] for every binding of its loops that
// passes Cond. Lets are scalar bindings evaluated after loop variables are
// bound (in order), before Keys/Cond/Delta.
type Stmt struct {
	Target string
	Keys   []Expr
	Loops  []Loop
	Lets   []Let
	Cond   Expr // nil means always
	Delta  Expr
	// Level is the target map's recursion level; the engine orders
	// statements by ascending level so every RHS reads pre-state values.
	Level int
}

// Loop enumerates the entries of a map slice: key positions with a non-nil
// Bound expression are fixed; the others bind the corresponding FreeVars
// entry. ValueVar, when non-empty, binds the entry's value.
type Loop struct {
	Map      string
	Bound    []Expr // len = map arity; nil = free position
	FreeVars []algebra.Var
	ValueVar algebra.Var
}

// Let binds Var to the value of Expr.
type Let struct {
	Var  algebra.Var
	Expr Expr
}

// Expr is a scalar runtime expression. Kind reports the statically
// inferred result type (KindNull until InferTypes has annotated the
// program — consumers must treat KindNull as "unknown" and fall back to
// dynamic evaluation).
type Expr interface {
	fmt.Stringer
	exprNode()
	Kind() types.Kind
}

// Const is a literal value.
type Const struct{ Value types.Value }

// VarRef reads a trigger parameter, loop variable, or let binding.
type VarRef struct {
	Name algebra.Var
	// Type is the variable's inferred kind (filled by InferTypes).
	Type types.Kind
}

// Lookup reads Map[Keys] (0 when absent). A zero-key lookup reads a
// scalar map.
type Lookup struct {
	Map  string
	Keys []Expr
	// Type is the lookup's result kind. The runtime reads every map value
	// as float, so InferTypes always annotates KindFloat.
	Type types.Kind
}

// Arith combines two expressions with +, -, *, or /.
type Arith struct {
	Op   byte
	L, R Expr
	// Type is the result kind under the runtime's numeric promotion:
	// int op int stays int (including /, which truncates), anything else
	// is float.
	Type types.Kind
}

// CmpE is a comparison yielding 1 or 0.
type CmpE struct {
	Op   algebra.CmpOp
	L, R Expr
}

func (*Const) exprNode()  {}
func (*VarRef) exprNode() {}
func (*Lookup) exprNode() {}
func (*Arith) exprNode()  {}
func (*CmpE) exprNode()   {}

// Kind implements Expr: a constant's kind is its value's kind.
func (c *Const) Kind() types.Kind { return c.Value.Kind() }

// Kind implements Expr.
func (v *VarRef) Kind() types.Kind { return v.Type }

// Kind implements Expr.
func (l *Lookup) Kind() types.Kind { return l.Type }

// Kind implements Expr.
func (a *Arith) Kind() types.Kind { return a.Type }

// Kind implements Expr: comparisons always yield the integers 1 or 0.
func (c *CmpE) Kind() types.Kind { return types.KindInt }

func (c *Const) String() string  { return c.Value.String() }
func (v *VarRef) String() string { return v.Name }
func (l *Lookup) String() string {
	parts := make([]string, len(l.Keys))
	for i, k := range l.Keys {
		parts[i] = k.String()
	}
	return l.Map + "[" + strings.Join(parts, ",") + "]"
}
func (a *Arith) String() string {
	return "(" + a.L.String() + " " + string(a.Op) + " " + a.R.String() + ")"
}
func (c *CmpE) String() string {
	return "(" + c.L.String() + " " + c.Op.String() + " " + c.R.String() + ")"
}

// String renders the statement in the paper's pseudo-code style.
func (s *Stmt) String() string {
	var b strings.Builder
	for _, lp := range s.Loops {
		fmt.Fprintf(&b, "foreach (%s) in %s", strings.Join(lp.freeNames(), ","), lp.sliceString())
		b.WriteString(": ")
	}
	for _, lt := range s.Lets {
		fmt.Fprintf(&b, "let %s = %s; ", lt.Var, lt.Expr)
	}
	if s.Cond != nil {
		fmt.Fprintf(&b, "if %s: ", s.Cond)
	}
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = k.String()
	}
	target := s.Target
	if len(keys) > 0 {
		target += "[" + strings.Join(keys, ",") + "]"
	}
	fmt.Fprintf(&b, "%s += %s", target, s.Delta)
	return b.String()
}

func (lp Loop) freeNames() []string {
	var out []string
	for _, v := range lp.FreeVars {
		if v != "" {
			out = append(out, v)
		}
	}
	return out
}

func (lp Loop) sliceString() string {
	parts := make([]string, len(lp.Bound))
	for i, b := range lp.Bound {
		if b != nil {
			parts[i] = b.String()
		} else {
			parts[i] = lp.FreeVars[i]
		}
	}
	return lp.Map + "[" + strings.Join(parts, ",") + "]"
}

// String renders the trigger.
func (t *Trigger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "on %s(%s):\n", t.Name(), strings.Join(t.Params, ", "))
	for _, s := range t.Stmts {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// Trigger finds the handler for an event; nil when the event cannot affect
// the query (no statements were generated).
func (p *Program) Trigger(rel string, insert bool) *Trigger {
	for _, t := range p.Triggers {
		if strings.EqualFold(t.Relation, rel) && t.Insert == insert {
			return t
		}
	}
	return nil
}

// SortStmts orders every trigger's statements so that a statement reading a
// map runs before any statement updating that map: every right-hand side
// then sees pre-state values, which is what the delta rule Δ(a·b) =
// Δa·b + a·Δb + Δa·Δb requires. Ordering is a stable topological sort of
// the reads-target relation with the recursion level as tie-break; a read/
// write cycle (which the supported query class cannot produce) is an error.
func (p *Program) SortStmts() error {
	for _, t := range p.Triggers {
		sorted, err := topoSort(t)
		if err != nil {
			return err
		}
		t.Stmts = sorted
		if err := checkReadBeforeWrite(t); err != nil {
			return err
		}
	}
	return nil
}

func topoSort(t *Trigger) ([]*Stmt, error) {
	n := len(t.Stmts)
	// edge i→j when statement i must precede j (i reads j's target).
	succ := make([][]int, n)
	indeg := make([]int, n)
	reads := make([]map[string]bool, n)
	for i, s := range t.Stmts {
		reads[i] = map[string]bool{}
		collectReads(s, reads[i])
	}
	for i, si := range t.Stmts {
		for j, sj := range t.Stmts {
			if i == j || si.Target == sj.Target {
				continue
			}
			if reads[i][sj.Target] {
				succ[i] = append(succ[i], j)
				indeg[j]++
			}
		}
	}
	// Kahn's algorithm; among ready statements pick lowest level, then the
	// original position, for stable deterministic output.
	order := make([]int, 0, n)
	used := make([]bool, n)
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			if best == -1 || t.Stmts[i].Level < t.Stmts[best].Level {
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("ir: trigger %s has a read/write cycle between map updates", t.Name())
		}
		used[best] = true
		order = append(order, best)
		for _, j := range succ[best] {
			indeg[j]--
		}
	}
	out := make([]*Stmt, n)
	for i, idx := range order {
		out[i] = t.Stmts[idx]
	}
	return out, nil
}

// checkReadBeforeWrite verifies no statement reads a map that an earlier
// statement in the same trigger has already written: pre-state semantics.
func checkReadBeforeWrite(t *Trigger) error {
	written := map[string]bool{}
	for _, s := range t.Stmts {
		reads := map[string]bool{}
		collectReads(s, reads)
		for m := range reads {
			if written[m] && m != s.Target {
				return fmt.Errorf("ir: trigger %s reads %s after it was updated", t.Name(), m)
			}
		}
		written[s.Target] = true
	}
	return nil
}

// Reads returns the maps the statement reads: every loop source and every
// lookup in its bounds, lets, keys, condition and delta.
func (s *Stmt) Reads() map[string]bool {
	set := map[string]bool{}
	collectReads(s, set)
	return set
}

func collectReads(s *Stmt, set map[string]bool) {
	for _, lp := range s.Loops {
		set[lp.Map] = true
		for _, b := range lp.Bound {
			collectExprReads(b, set)
		}
	}
	for _, lt := range s.Lets {
		collectExprReads(lt.Expr, set)
	}
	for _, k := range s.Keys {
		collectExprReads(k, set)
	}
	collectExprReads(s.Cond, set)
	collectExprReads(s.Delta, set)
}

func collectExprReads(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case nil:
	case *Lookup:
		set[e.Map] = true
		for _, k := range e.Keys {
			collectExprReads(k, set)
		}
	case *Arith:
		collectExprReads(e.L, set)
		collectExprReads(e.R, set)
	case *CmpE:
		collectExprReads(e.L, set)
		collectExprReads(e.R, set)
	}
}

// String renders the whole program: map declarations then triggers.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- program %s\n", p.QueryName)
	for _, name := range p.MapOrder {
		m := p.Maps[name]
		sorted := ""
		if m.Sorted {
			sorted = " (sorted)"
		}
		fmt.Fprintf(&b, "map %s[%s]%s := %s\n", m.Name, strings.Join(m.Keys, ","), sorted, m.Definition)
	}
	for _, t := range p.Triggers {
		b.WriteString(t.String())
	}
	return b.String()
}
