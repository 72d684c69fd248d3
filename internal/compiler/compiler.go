// Package compiler implements DBToaster's recursive delta compilation: the
// paper's central contribution. Each standing query's aggregate components
// become materialized maps; for every (relation, insert/delete) event the
// compiler derives the delta of each map's defining query, simplifies it,
// and materializes the relation-bearing subterms of each delta monomial as
// further maps — recursing until deltas are parameter-only expressions.
// Every recursion level removes at least one relation atom, so compilation
// terminates, and structurally identical maps are shared across triggers
// and recursion levels through a canonical-form registry.
package compiler

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/delta"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/simplify"
	"dbtoaster/internal/translate"
)

// Compiled is the result of compiling one standing query (with any nested
// subqueries) into a single trigger program.
type Compiled struct {
	Program *ir.Program
	Root    *QueryInfo
}

// QueryInfo maps a translated query's components to their result maps.
type QueryInfo struct {
	Query *translate.Query
	Comps []CompInfo
	Subs  []*QueryInfo // aligned with Query.Subqueries
}

// CompInfo describes where and how one aggregate component is materialized.
type CompInfo struct {
	MapName string
	Kind    translate.ComponentKind
	// GroupPos[i] is the map-key position holding the query's i-th GROUP
	// BY variable.
	GroupPos []int
	// ExtPos is the map-key position of the Min/Max lifted value or the
	// threshold measure variable; -1 otherwise.
	ExtPos int
	// Threshold is set when a subquery comparison was rewritten into a
	// sorted range read.
	Threshold *Threshold
}

// Threshold records a rewritten subquery comparison: the component map is
// additionally keyed by the measure expression's value (at ExtPos), and the
// query result is the range aggregate of entries whose measure compares
// against the threshold expression's current value.
type Threshold struct {
	Var  algebra.Var     // the lifted measure variable
	Op   algebra.CmpOp   // measure Op threshold
	Expr algebra.ValExpr // threshold value over subquery variables
}

// Compiler drives recursive compilation for one program.
type Compiler struct {
	cat   *schema.Catalog
	prog  *ir.Program
	byDef map[string]*ir.MapDecl
	queue []*ir.MapDecl
	trigs map[string]*ir.Trigger
	nMaps int
	// MaxDepth caps recursion as a safety net; the atom-count argument
	// guarantees termination long before this for supported queries.
	MaxDepth int
	// trace, when non-nil, receives a step-by-step narration of the
	// compilation: delta derivation, simplification, and materialization
	// decisions (the content of the paper's Figure 3 visualization).
	trace io.Writer
}

// Compile takes a translated query and emits the full trigger program plus
// the component→map directory.
func Compile(q *translate.Query) (*Compiled, error) { return CompileTraced(q, nil) }

// MultiCompiled is a set of standing queries compiled into ONE trigger
// program: the canonical-form registry is shared, so structurally identical
// maps are maintained once no matter how many queries need them (the
// paper's map sharing, extended across queries).
type MultiCompiled struct {
	Program *ir.Program
	Roots   []*QueryInfo
}

// CompileAll compiles several translated queries into a single shared
// program. Query names must be distinct (they prefix result-map names).
func CompileAll(queries []*translate.Query) (*MultiCompiled, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("compiler: no queries")
	}
	if len(queries) > 1 {
		seen := map[string]bool{}
		for _, q := range queries {
			if seen[q.Name] {
				return nil, fmt.Errorf("compiler: duplicate query name %q", q.Name)
			}
			seen[q.Name] = true
		}
	}
	c := &Compiler{
		cat:      queries[0].Catalog,
		prog:     &ir.Program{QueryName: queries[0].Name, SQL: queries[0].SQL, Maps: map[string]*ir.MapDecl{}},
		byDef:    map[string]*ir.MapDecl{},
		trigs:    map[string]*ir.Trigger{},
		MaxDepth: 16,
	}
	out := &MultiCompiled{Program: c.prog}
	for _, q := range queries {
		if q.Catalog != queries[0].Catalog {
			return nil, fmt.Errorf("compiler: queries must share one catalog")
		}
		root, err := c.compileQuery(q)
		if err != nil {
			return nil, err
		}
		out.Roots = append(out.Roots, root)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// CompileTraced is Compile with an optional step-by-step trace writer.
func CompileTraced(q *translate.Query, trace io.Writer) (*Compiled, error) {
	c := &Compiler{
		cat:      q.Catalog,
		prog:     &ir.Program{QueryName: q.Name, SQL: q.SQL, Maps: map[string]*ir.MapDecl{}},
		byDef:    map[string]*ir.MapDecl{},
		trigs:    map[string]*ir.Trigger{},
		MaxDepth: 16,
		trace:    trace,
	}
	root, err := c.compileQuery(q)
	if err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return &Compiled{Program: c.prog, Root: root}, nil
}

// finish drains the map queue and assembles triggers deterministically
// (sorted by relation, inserts before deletes) with pre-state ordering.
func (c *Compiler) finish() error {
	if err := c.drain(); err != nil {
		return err
	}
	keys := make([]string, 0, len(c.trigs))
	for k := range c.trigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.prog.Triggers = append(c.prog.Triggers, c.trigs[k])
	}
	if err := c.prog.SortStmts(); err != nil {
		return err
	}
	// Static typing pass: annotate maps, triggers, and expressions so the
	// runtime can select specialized storage and unboxed kernels.
	return ir.InferTypes(c.prog, c.cat)
}

// compileQuery registers result maps for a query and, recursively, its
// subqueries. Trigger generation happens later in drain.
func (c *Compiler) compileQuery(q *translate.Query) (*QueryInfo, error) {
	info := &QueryInfo{Query: q}
	for _, sub := range q.Subqueries {
		si, err := c.compileQuery(sub.Query)
		if err != nil {
			return nil, err
		}
		info.Subs = append(info.Subs, si)
	}

	comps, thresholds, err := rewriteThresholds(q)
	if err != nil {
		return nil, err
	}

	for i, comp := range comps {
		ext := map[algebra.Var]bool{}
		for _, g := range comp.Term.GroupVars {
			ext[g] = true
		}
		body := comp.Term.Body
		var factors []algebra.Term
		if p, ok := body.(*algebra.Prod); ok {
			factors = p.Factors
		} else {
			factors = []algebra.Term{body}
		}
		def, extOrder := canonicalize(factors, ext, comp.Term.GroupVars)
		name := q.Name
		if len(comps) > 1 {
			name = fmt.Sprintf("%s_c%d", q.Name, i)
		}
		sorted := comp.Kind == translate.CompMin || comp.Kind == translate.CompMax || thresholds[i] != nil
		decl := c.register(def, name, 0, sorted)
		ci := CompInfo{
			MapName:   decl.Name,
			Kind:      comp.Kind,
			ExtPos:    -1,
			Threshold: thresholds[i],
		}
		pos := map[algebra.Var]int{}
		for p, v := range extOrder {
			pos[v] = p
		}
		for _, g := range q.GroupVars {
			p, ok := pos[g]
			if !ok {
				return nil, fmt.Errorf("compiler: group variable %s missing from component %d keys", g, i)
			}
			ci.GroupPos = append(ci.GroupPos, p)
		}
		switch {
		case comp.ExtVar != "":
			ci.ExtPos = pos[comp.ExtVar]
		case thresholds[i] != nil:
			ci.ExtPos = pos[thresholds[i].Var]
		}
		info.Comps = append(info.Comps, ci)
	}
	return info, nil
}

// register returns the map for a canonical definition, creating (and
// queueing) it when unseen. preferred is used as the name for new result
// maps; internal maps are named mN.
func (c *Compiler) register(def *algebra.AggSum, preferred string, level int, sorted bool) *ir.MapDecl {
	sig := def.String()
	if d, ok := c.byDef[sig]; ok {
		if sorted {
			d.Sorted = true
		}
		return d
	}
	name := preferred
	if name == "" {
		c.nMaps++
		name = fmt.Sprintf("m%d", c.nMaps)
	}
	if c.trace != nil {
		fmt.Fprintf(c.trace, "  materialize new map %s[%s] := %s (level %d)\n",
			name, strings.Join(def.GroupVars, ","), def, level)
	}
	decl := &ir.MapDecl{
		Name:       name,
		Keys:       append([]algebra.Var{}, def.GroupVars...),
		Definition: def,
		Level:      level,
		Sorted:     sorted,
	}
	c.byDef[sig] = decl
	c.prog.Maps[name] = decl
	c.prog.MapOrder = append(c.prog.MapOrder, name)
	c.queue = append(c.queue, decl)
	return decl
}

// drain compiles triggers for every queued map (new maps created along the
// way re-enter the queue).
func (c *Compiler) drain() error {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		if m.Level > c.MaxDepth {
			return fmt.Errorf("compiler: recursion depth exceeded at map %s", m.Name)
		}
		if err := c.compileMap(m); err != nil {
			return err
		}
	}
	return nil
}

// compileMap derives and materializes the deltas of one map for every
// event type on every relation its definition mentions.
func (c *Compiler) compileMap(m *ir.MapDecl) error {
	for _, relName := range algebra.Relations(m.Definition) {
		rel, ok := c.cat.Relation(relName)
		if !ok {
			return fmt.Errorf("compiler: map %s references unknown relation %q", m.Name, relName)
		}
		for _, insert := range []bool{true, false} {
			ev := delta.NewEvent(rel, insert)
			if err := c.compileTrigger(m, ev); err != nil {
				return fmt.Errorf("compiler: map %s, event %s: %w", m.Name, ev.Name(), err)
			}
		}
	}
	return nil
}

func (c *Compiler) compileTrigger(m *ir.MapDecl, ev delta.Event) error {
	d := delta.Apply(m.Definition.Body, ev)
	bound := map[algebra.Var]bool{}
	for _, p := range ev.Params {
		bound[p] = true
	}
	for _, k := range m.Keys {
		bound[k] = true
	}
	if c.trace != nil {
		fmt.Fprintf(c.trace, "\n[level %d] Δ%s of %s[%s] := %s\n",
			m.Level, ev.Name(), m.Name, strings.Join(m.Keys, ","), m.Definition)
		fmt.Fprintf(c.trace, "  raw delta: %s\n", d)
	}
	monomials := simplify.Simplify(d, func(v algebra.Var) bool { return bound[v] })
	if c.trace != nil {
		if len(monomials) == 0 {
			fmt.Fprintf(c.trace, "  simplifies to zero\n")
		}
		for i, mono := range monomials {
			fmt.Fprintf(c.trace, "  monomial %d after simplification: %s\n", i+1, mono)
		}
	}
	for _, mono := range monomials {
		stmt, err := c.materialize(m, ev, mono)
		if err != nil {
			return err
		}
		if stmt == nil {
			// An EXISTS factor's delta vanished under this event's
			// constraints; the monomial contributes nothing.
			continue
		}
		if c.trace != nil {
			fmt.Fprintf(c.trace, "  statement: %s\n", stmt)
		}
		c.trigger(ev).Stmts = append(c.trigger(ev).Stmts, stmt)
	}
	return nil
}

func (c *Compiler) trigger(ev delta.Event) *ir.Trigger {
	key := ev.Name()
	t, ok := c.trigs[key]
	if !ok {
		t = &ir.Trigger{Relation: ev.Rel.Name, Insert: ev.Insert, Params: ev.Params}
		c.trigs[key] = t
	}
	return t
}

// canonicalize renames a factor list into canonical form: factors sorted by
// their rendering, external variables renamed k0..kn (extOrder records the
// original name per key position), interior variables renamed s0..sm.
// Structurally identical computations then produce identical definitions,
// which is what enables map sharing.
//
// Key positions follow preferred order first (result maps pass their group
// variables followed by any extremum/threshold variable, so ordered range
// reads can use group prefixes), then first-occurrence order.
func canonicalize(factors []algebra.Term, external map[algebra.Var]bool, preferred []algebra.Var) (*algebra.AggSum, []algebra.Var) {
	sorted := append([]algebra.Term{}, factors...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })

	ren := map[algebra.Var]algebra.Var{}
	var keys, extOrder []algebra.Var
	intN := 0
	scan := func(v algebra.Var) {
		if _, done := ren[v]; done {
			return
		}
		if external[v] {
			name := fmt.Sprintf("k%d", len(keys))
			ren[v] = name
			keys = append(keys, name)
			extOrder = append(extOrder, v)
		} else {
			ren[v] = fmt.Sprintf("s%d", intN)
			intN++
		}
	}
	for _, v := range preferred {
		if external[v] {
			scan(v)
		}
	}
	for _, f := range sorted {
		switch f := f.(type) {
		case *algebra.Rel:
			for _, v := range f.Vars {
				scan(v)
			}
		case *algebra.Lift:
			for _, v := range algebra.FreeVars(&algebra.Val{Expr: f.Expr}) {
				scan(v)
			}
			scan(f.Var)
		default:
			for _, v := range algebra.FreeVars(f) {
				scan(v)
			}
		}
	}
	renamed := make([]algebra.Term, len(sorted))
	for i, f := range sorted {
		renamed[i] = algebra.Rename(f, ren)
	}
	return &algebra.AggSum{GroupVars: keys, Body: algebra.NewProd(renamed...)}, extOrder
}

// rewriteThresholds handles queries with subqueries: each component's
// defining term has its (single) subquery comparison removed and replaced
// by a lift of the measure expression onto an extra group variable; the
// engine later reads the result as a sorted range aggregate against the
// subquery's current value. Queries without subqueries pass through.
func rewriteThresholds(q *translate.Query) ([]translate.Component, []*Threshold, error) {
	thresholds := make([]*Threshold, len(q.Components))
	if len(q.Subqueries) == 0 {
		return q.Components, thresholds, nil
	}
	subVars := map[algebra.Var]bool{}
	for _, s := range q.Subqueries {
		subVars[s.Var] = true
	}
	hasSubVar := func(vs []algebra.Var) bool {
		for _, v := range vs {
			if subVars[v] {
				return true
			}
		}
		return false
	}
	out := make([]translate.Component, len(q.Components))
	for i, comp := range q.Components {
		body, ok := comp.Term.Body.(*algebra.Prod)
		if !ok {
			return nil, nil, fmt.Errorf("compiler: unexpected component body %T with subqueries", comp.Term.Body)
		}
		tv := fmt.Sprintf("tv%d", i+1)
		var th *Threshold
		newFactors := make([]algebra.Term, 0, len(body.Factors))
		for _, f := range body.Factors {
			fv := algebra.FreeVars(f)
			if !hasSubVar(fv) {
				newFactors = append(newFactors, f)
				continue
			}
			cmp, ok := f.(*algebra.Cmp)
			if !ok {
				return nil, nil, fmt.Errorf("compiler: subquery value used outside a comparison in %s", f)
			}
			if th != nil {
				return nil, nil, fmt.Errorf("compiler: at most one subquery comparison per query is supported")
			}
			measure, threshold, op := cmp.L, cmp.R, cmp.Op
			if hasSubVar(algebra.FreeVars(&algebra.Val{Expr: measure})) {
				measure, threshold, op = cmp.R, cmp.L, cmp.Op.Flip()
			}
			if hasSubVar(algebra.FreeVars(&algebra.Val{Expr: measure})) {
				return nil, nil, fmt.Errorf("compiler: both sides of %s reference subqueries", cmp)
			}
			for _, v := range algebra.FreeVars(&algebra.Val{Expr: threshold}) {
				if !subVars[v] {
					return nil, nil, fmt.Errorf("compiler: threshold side of %s mixes base columns with subquery values", cmp)
				}
			}
			th = &Threshold{Var: tv, Op: op, Expr: threshold}
			newFactors = append(newFactors, &algebra.Lift{Var: tv, Expr: measure})
		}
		if th == nil {
			out[i] = comp
			continue
		}
		gv := append(append([]algebra.Var{}, comp.Term.GroupVars...), tv)
		out[i] = translate.Component{
			Kind:   comp.Kind,
			ExtVar: comp.ExtVar,
			Term:   &algebra.AggSum{GroupVars: gv, Body: algebra.NewProd(newFactors...)},
		}
		thresholds[i] = th
	}
	return out, thresholds, nil
}
