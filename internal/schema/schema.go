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

// Coerce returns a copy of t with ints widened to floats where the column
// type is float, so that downstream map keys are kind-stable.
func (r *Relation) Coerce(t types.Tuple) types.Tuple {
	out := t
	copied := false
	for i, v := range t {
		if r.Columns[i].Type == types.KindFloat && v.Kind() == types.KindInt {
			if !copied {
				out = t.Clone()
				copied = true
			}
			out[i] = types.NewFloat(v.Float())
		}
	}
	return out
}

// Catalog is a set of relations addressable by case-insensitive name.
type Catalog struct {
	rels map[string]*Relation
	// exact indexes the same relations by their declared spelling, so the
	// per-event lookups (which almost always use it) skip the case fold.
	exact map[string]*Relation
	// order preserves insertion order for deterministic listings.
	order []string
}

// NewCatalog builds a catalog from the given relations.
func NewCatalog(rels ...*Relation) *Catalog {
	c := &Catalog{rels: make(map[string]*Relation), exact: make(map[string]*Relation)}
	for _, r := range rels {
		c.Add(r)
	}
	return c
}

// Add registers a relation, replacing any previous one of the same name.
func (c *Catalog) Add(r *Relation) {
	key := strings.ToLower(r.Name)
	if old, exists := c.rels[key]; exists {
		delete(c.exact, old.Name)
	} else {
		c.order = append(c.order, key)
	}
	c.rels[key] = r
	c.exact[r.Name] = r
}

// Relation looks up a relation by name (case-insensitive). The returned
// pointer is the catalog's one handle for the relation: its Name is the
// canonical spelling whatever case the caller used.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	if r, ok := c.exact[name]; ok {
		return r, true
	}
	r, ok := c.rels[strings.ToLower(name)]
	return r, ok
}

// RelationBytes is Relation for a name still sitting in a read buffer; it
// does not allocate when the name uses the declared spelling.
func (c *Catalog) RelationBytes(name []byte) (*Relation, bool) {
	if r, ok := c.exact[string(name)]; ok {
		return r, true
	}
	r, ok := c.rels[strings.ToLower(string(name))]
	return r, ok
}

// Relations returns all relations in insertion order.
func (c *Catalog) Relations() []*Relation {
	out := make([]*Relation, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.rels[k])
	}
	return out
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
