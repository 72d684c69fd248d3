// Package qgen generates random but always-compilable SQL queries and
// random event traces (inserts, deletes, and updates) over a fixed join
// chain, for differential testing of the query engines: every generated
// query must produce bitwise-identical results on the recursively compiled
// engine (typed and untyped storage) and the re-evaluating Volcano
// baseline.
//
// The grammar spans the supported SQL surface: SUM/COUNT/AVG (and MIN/MAX
// away from outer joins) over arithmetic arguments, comma joins, INNER and
// LEFT OUTER JOIN chains, WHERE clauses with AND/OR/NOT, and EXISTS/IN
// subquery predicates with equality correlation. It deliberately stays
// inside the compiler's documented limits — single-relation subqueries,
// equality-only correlation, no grouping on a nullable side — so any
// failure is an engine bug, not a rejected query.
package qgen

import (
	"fmt"
	"math/rand"
	"strings"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// relInfo describes one relation of the fixed catalog.
type relInfo struct {
	name string
	cols []string
}

// The catalog forms a join chain R(A,B) — S(B,C) — T(C,D): adjacent
// relations share a column name, giving natural equality join keys.
var rels = []relInfo{
	{"R", []string{"A", "B"}},
	{"S", []string{"B", "C"}},
	{"T", []string{"C", "D"}},
}

// chainKey[i] is the column joining rels[i] to rels[i+1].
var chainKey = []string{"B", "C"}

// domain is the value range for generated tuples and literals; small, so
// joins hit, EXISTS witnesses flip, and deletes find live tuples.
const domain = 5

// Catalog returns the fixed schema all generated queries run against.
func Catalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("T", "C:int", "D:int"),
	)
}

// Gen is a deterministic query/trace generator. Two Gens with the same
// seed produce the same sequence of queries and traces.
type Gen struct {
	r *rand.Rand
}

// New builds a generator from a seed.
func New(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed))}
}

// fromEntry is one generated FROM-list element.
type fromEntry struct {
	rel  relInfo
	join string // "", "comma", "inner", "left"
	on   string // join condition for inner/left
	// nullable records whether the entry sits on the nullable side of a
	// LEFT join (its own or an earlier one it chains from).
	nullable bool
}

// query state while generating one statement.
type qstate struct {
	from    []fromEntry
	whereEq []string // chain equalities for comma-joined entries
}

// col formats a qualified column reference.
func col(rel, c string) string { return rel + "." + c }

// anyCol picks a random column of a random FROM entry; nullableOK=false
// restricts to entries outside every LEFT join's nullable side.
func (g *Gen) anyCol(qs *qstate, nullableOK bool) string {
	var cands []string
	for _, e := range qs.from {
		if e.nullable && !nullableOK {
			continue
		}
		for _, c := range e.rel.cols {
			cands = append(cands, col(e.rel.name, c))
		}
	}
	return cands[g.r.Intn(len(cands))]
}

// hasLeft reports whether the FROM chain contains a LEFT join.
func (qs *qstate) hasLeft() bool {
	for _, e := range qs.from {
		if e.nullable {
			return true
		}
	}
	return false
}

// genFrom builds a contiguous chain of 1–3 relations with random join
// styles. Comma entries contribute their chain equality to WHERE; JOIN
// entries carry it in ON.
func (g *Gen) genFrom() *qstate {
	start := g.r.Intn(len(rels))
	maxLen := len(rels) - start
	n := 1 + g.r.Intn(maxLen)
	qs := &qstate{}
	for i := 0; i < n; i++ {
		e := fromEntry{rel: rels[start+i]}
		if i > 0 {
			prev := rels[start+i-1]
			key := chainKey[start+i-1]
			cond := fmt.Sprintf("%s = %s", col(prev.name, key), col(e.rel.name, key))
			switch g.r.Intn(3) {
			case 0:
				e.join = "comma"
				qs.whereEq = append(qs.whereEq, cond)
			case 1:
				e.join = "inner"
				e.on = cond
			default:
				e.join = "left"
				e.on = cond
				e.nullable = true
			}
			// Chaining from a nullable entry keeps NULL flowing right.
			if qs.from[i-1].nullable && e.join != "left" {
				e.nullable = true
			}
		}
		qs.from = append(qs.from, e)
	}
	return qs
}

// genAggArg produces a scalar argument: a column, a sum of two columns, or
// a column scaled by a constant.
func (g *Gen) genAggArg(qs *qstate) string {
	c := g.anyCol(qs, true)
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s + %s", c, g.anyCol(qs, true))
	case 1:
		return fmt.Sprintf("%s * %d", c, 1+g.r.Intn(3))
	default:
		return c
	}
}

// genAggregate produces one aggregate item. MIN/MAX are excluded when the
// chain has a LEFT join (unsupported combination, analyzer-rejected).
func (g *Gen) genAggregate(qs *qstate) string {
	n := 5
	if qs.hasLeft() {
		n = 4
	}
	switch g.r.Intn(n) {
	case 0:
		return "count(*)"
	case 1:
		return fmt.Sprintf("count(%s)", g.anyCol(qs, true))
	case 2:
		return fmt.Sprintf("avg(%s)", g.genAggArg(qs))
	case 3:
		return fmt.Sprintf("sum(%s)", g.genAggArg(qs))
	default:
		fn := "min"
		if g.r.Intn(2) == 0 {
			fn = "max"
		}
		return fmt.Sprintf("%s(%s)", fn, g.anyCol(qs, true))
	}
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// genSimplePred produces a comparison between a column and a literal or
// another column.
func (g *Gen) genSimplePred(qs *qstate) string {
	l := g.anyCol(qs, true)
	op := cmpOps[g.r.Intn(len(cmpOps))]
	if g.r.Intn(3) == 0 {
		return fmt.Sprintf("%s %s %s", l, op, g.anyCol(qs, true))
	}
	return fmt.Sprintf("%s %s %d", l, op, g.r.Intn(domain))
}

// genSubPred produces an EXISTS or IN predicate over a single-relation
// subquery, correlated by equality only (the compiler's witness-count maps
// require derivable keys).
func (g *Gen) genSubPred(qs *qstate) string {
	sub := rels[g.r.Intn(len(rels))]
	subCol := func() string { return col(sub.name, sub.cols[g.r.Intn(len(sub.cols))]) }

	// Outer columns whose qualifier isn't shadowed by the subquery's own
	// relation (name resolution is innermost-first).
	var outerCands []string
	for _, e := range qs.from {
		if e.rel.name == sub.name {
			continue
		}
		for _, c := range e.rel.cols {
			outerCands = append(outerCands, col(e.rel.name, c))
		}
	}

	var conds []string
	if len(outerCands) > 0 && g.r.Intn(4) > 0 { // correlate by equality most of the time
		conds = append(conds, fmt.Sprintf("%s = %s", subCol(), outerCands[g.r.Intn(len(outerCands))]))
	}
	if g.r.Intn(3) == 0 { // extra uncorrelated range predicate
		conds = append(conds, fmt.Sprintf("%s %s %d",
			subCol(), cmpOps[g.r.Intn(len(cmpOps))], g.r.Intn(domain)))
	}
	where := ""
	if len(conds) > 0 {
		where = " where " + strings.Join(conds, " and ")
	}

	neg := ""
	if g.r.Intn(3) == 0 {
		neg = "not "
	}
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("%sexists (select * from %s%s)", neg, sub.name, where)
	}
	needle := g.anyCol(qs, true)
	if g.r.Intn(4) == 0 {
		needle = fmt.Sprintf("%d", g.r.Intn(domain))
	}
	return fmt.Sprintf("%s %sin (select %s from %s%s)", needle, neg, subCol(), sub.name, where)
}

// genWhere assembles 0–2 conjuncts, occasionally OR-combining simple
// predicates, plus the comma-join chain equalities.
func (g *Gen) genWhere(qs *qstate) string {
	conds := append([]string{}, qs.whereEq...)
	for i := g.r.Intn(3); i > 0; i-- {
		switch g.r.Intn(4) {
		case 0:
			conds = append(conds, g.genSubPred(qs))
		case 1:
			conds = append(conds, fmt.Sprintf("(%s or %s)",
				g.genSimplePred(qs), g.genSimplePred(qs)))
		default:
			conds = append(conds, g.genSimplePred(qs))
		}
	}
	if len(conds) == 0 {
		return ""
	}
	return " where " + strings.Join(conds, " and ")
}

// Query generates one random SELECT statement.
func (g *Gen) Query() string {
	qs := g.genFrom()

	// GROUP BY: one column from a non-nullable entry, sometimes.
	groupCol := ""
	if g.r.Intn(3) == 0 {
		if c := g.tryGroupCol(qs); c != "" {
			groupCol = c
		}
	}

	var items []string
	if groupCol != "" {
		items = append(items, groupCol)
	}
	for i := 1 + g.r.Intn(2); i > 0; i-- {
		items = append(items, g.genAggregate(qs))
	}

	var from strings.Builder
	for i, e := range qs.from {
		if i > 0 {
			switch e.join {
			case "inner":
				from.WriteString(" join ")
			case "left":
				from.WriteString(" left outer join ")
			default:
				from.WriteString(", ")
			}
		}
		from.WriteString(e.rel.name)
		if e.on != "" {
			from.WriteString(" on " + e.on)
		}
	}

	q := fmt.Sprintf("select %s from %s%s", strings.Join(items, ", "), from.String(), g.genWhere(qs))
	if groupCol != "" {
		q += " group by " + groupCol
	}
	return q
}

// tryGroupCol picks a group-by column outside nullable sides, or "" when
// every entry is nullable-adjacent.
func (g *Gen) tryGroupCol(qs *qstate) string {
	var cands []string
	for _, e := range qs.from {
		if e.nullable {
			continue
		}
		for _, c := range e.rel.cols {
			cands = append(cands, col(e.rel.name, c))
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[g.r.Intn(len(cands))]
}

// Trace generates n events over the catalog: inserts over the small value
// domain, deletes of live tuples, and updates (delete + reinsert with one
// value changed). Deletes and updates only target tuples the trace itself
// inserted, so engine state stays consistent with a bag semantics replay.
func (g *Gen) Trace(n int) []stream.Event {
	var live []stream.Event
	var out []stream.Event
	tuple := func(rel relInfo) stream.Event {
		args := make(types.Tuple, len(rel.cols))
		for i := range args {
			args[i] = types.NewInt(int64(g.r.Intn(domain)))
		}
		return stream.Event{Op: stream.Insert, Relation: rel.name, Args: args}
	}
	for len(out) < n {
		switch {
		case len(live) > 0 && g.r.Intn(4) == 0: // delete
			j := g.r.Intn(len(live))
			ev := live[j]
			live = append(live[:j], live[j+1:]...)
			out = append(out, stream.Event{Op: stream.Delete, Relation: ev.Relation, Args: ev.Args})
		case len(live) > 0 && g.r.Intn(5) == 0: // update: delete + reinsert
			j := g.r.Intn(len(live))
			old := live[j]
			args := append(types.Tuple{}, old.Args...)
			args[g.r.Intn(len(args))] = types.NewInt(int64(g.r.Intn(domain)))
			upd := stream.Event{Op: stream.Insert, Relation: old.Relation, Args: args}
			live[j] = upd
			out = append(out,
				stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args},
				upd)
		default:
			ev := tuple(rels[g.r.Intn(len(rels))])
			live = append(live, ev)
			out = append(out, ev)
		}
	}
	return out[:n]
}
