// Package schema defines relation schemas and the catalog the compiler and
// engines resolve table and column names against.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/types"
)

// Column is a named, typed attribute of a relation.
type Column struct {
	Name string
	Type types.Kind
}

// Relation describes a base relation (a stream of inserts/deletes in the
// DBToaster data model: every relation is subject to arbitrary updates).
type Relation struct {
	Name    string
	Columns []Column
}

// ParseRelation builds a relation from "name:type" column specs, e.g.
// ParseRelation("R", "A:int", "B:int"). Specs can arrive from user input
// (server catalogs, CLI -tables flags), so malformed ones return an error.
func ParseRelation(name string, cols ...string) (*Relation, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("schema: empty relation name")
	}
	r := &Relation{Name: name}
	for _, c := range cols {
		parts := strings.SplitN(c, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("schema: %s: malformed column spec %q (want name:type)", name, c)
		}
		col := strings.TrimSpace(parts[0])
		if col == "" {
			return nil, fmt.Errorf("schema: %s: empty column name in spec %q", name, c)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, fmt.Errorf("schema: %s.%s: %w", name, col, err)
		}
		r.Columns = append(r.Columns, Column{Name: col, Type: kind})
	}
	return r, nil
}

// NewRelation is ParseRelation for statically-known schemas (tests,
// workload definitions): it panics on malformed specs.
func NewRelation(name string, cols ...string) *Relation {
	r, err := ParseRelation(name, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseKind maps a SQL-ish type name to a value kind.
func ParseKind(s string) (types.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "bigint":
		return types.KindInt, nil
	case "float", "double", "decimal", "real":
		return types.KindFloat, nil
	case "string", "varchar", "char", "text":
		return types.KindString, nil
	case "bool", "boolean":
		return types.KindBool, nil
	default:
		return types.KindNull, fmt.Errorf("schema: unknown type %q", s)
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Columns) }

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// String renders "R(A:int, B:int)".
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('(')
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Validate checks a tuple against the relation's schema: correct arity and
// each value assignable to the column type (ints accepted for floats).
func (r *Relation) Validate(t types.Tuple) error {
	if len(t) != len(r.Columns) {
		return fmt.Errorf("schema: %s expects %d values, got %d", r.Name, len(r.Columns), len(t))
	}
	for i, v := range t {
		want := r.Columns[i].Type
		if v.Kind() == want {
			continue
		}
		if want == types.KindFloat && v.Kind() == types.KindInt {
			continue
		}
		return fmt.Errorf("schema: %s.%s expects %s, got %s (%v)",
			r.Name, r.Columns[i].Name, want, v.Kind(), v)
	}
	return nil
}

// Widen widens t's ints to floats in place where the column type is float,
// for a validated tuple the caller owns.
func (r *Relation) Widen(t types.Tuple) {
	for i, v := range t {
		if r.Columns[i].Type == types.KindFloat && v.Kind() == types.KindInt {
			t[i] = types.NewFloat(v.Float())
		}
	}
}

// Coerce returns a copy of t with ints widened to floats where the column
// type is float, so that downstream map keys are kind-stable.
func (r *Relation) Coerce(t types.Tuple) types.Tuple {
	for i, v := range t {
		if r.Columns[i].Type == types.KindFloat && v.Kind() == types.KindInt {
			out := t.Clone()
			r.Widen(out)
			return out
		}
	}
	return t
}

// Catalog is a set of relations addressable by case-insensitive name. Each
// relation has an ordinal, its position in insertion order: replacing a
// relation keeps its ordinal, so ordinals are stable for the catalog's life.
// Admission stamps an event with its relation's ordinal, and engines built
// over the catalog dispatch on it instead of on the name.
type Catalog struct {
	rels []*Relation // by ordinal
	fold map[string]int
	// exact indexes the same ordinals by the declared spelling, so the
	// per-event lookups (which almost always use it) skip the case fold.
	exact  map[string]int
	sealed bool
}

// NewCatalog builds a catalog from the given relations.
func NewCatalog(rels ...*Relation) *Catalog {
	c := &Catalog{fold: make(map[string]int), exact: make(map[string]int)}
	for _, r := range rels {
		c.Add(r)
	}
	return c
}

// Add registers a relation, replacing any previous one of the same name. It
// panics on a sealed catalog.
func (c *Catalog) Add(r *Relation) {
	if c.sealed {
		panic(fmt.Sprintf("schema: relation %s added to a sealed catalog", r.Name))
	}
	key := strings.ToLower(r.Name)
	ord, exists := c.fold[key]
	if exists {
		delete(c.exact, c.rels[ord].Name)
		c.rels[ord] = r
	} else {
		ord = len(c.rels)
		c.rels = append(c.rels, r)
		c.fold[key] = ord
	}
	c.exact[r.Name] = ord
}

// Seal freezes the catalog: a later Add panics. A server seals the catalog
// it serves, because its engines' dispatch tables and every admitted event's
// ordinal were laid out against the relations it held.
func (c *Catalog) Seal() { c.sealed = true }

// Relation looks up a relation by name (case-insensitive). The returned
// pointer is the catalog's one handle for the relation: its Name is the
// canonical spelling whatever case the caller used.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	r, _, ok := c.Lookup(name)
	return r, ok
}

// Lookup is Relation plus the relation's ordinal.
func (c *Catalog) Lookup(name string) (*Relation, int, bool) {
	ord, ok := c.exact[name]
	if !ok {
		if ord, ok = c.fold[strings.ToLower(name)]; !ok {
			return nil, -1, false
		}
	}
	return c.rels[ord], ord, true
}

// LookupBytes is Lookup for a name still sitting in a read buffer; it does
// not allocate when the name uses the declared spelling.
func (c *Catalog) LookupBytes(name []byte) (*Relation, int, bool) {
	ord, ok := c.exact[string(name)]
	if !ok {
		if ord, ok = c.fold[strings.ToLower(string(name))]; !ok {
			return nil, -1, false
		}
	}
	return c.rels[ord], ord, true
}

// Relations returns all relations in ordinal order.
func (c *Catalog) Relations() []*Relation {
	return append([]*Relation(nil), c.rels...)
}

// Names returns the sorted relation names; useful for deterministic output.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for _, r := range c.rels {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}
