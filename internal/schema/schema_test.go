package schema

import (
	"testing"

	"dbtoaster/internal/types"
)

func TestNewRelationAndString(t *testing.T) {
	r := NewRelation("R", "A:int", "B:float", "C:string", "D:bool")
	if r.Arity() != 4 {
		t.Fatalf("arity = %d", r.Arity())
	}
	want := "R(A:int, B:float, C:string, D:bool)"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNewRelationPanicsOnBadSpec(t *testing.T) {
	for _, spec := range []string{"noType", "A:unobtainium"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRelation(%q) did not panic", spec)
				}
			}()
			NewRelation("R", spec)
		}()
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]types.Kind{
		"int": types.KindInt, "INTEGER": types.KindInt, "bigint": types.KindInt,
		"float": types.KindFloat, "double": types.KindFloat, "DECIMAL": types.KindFloat,
		"varchar": types.KindString, "text": types.KindString,
		"bool": types.KindBool, " boolean ": types.KindBool,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should error")
	}
}

func TestColumnIndex(t *testing.T) {
	r := NewRelation("R", "A:int", "B:int")
	if r.ColumnIndex("a") != 0 || r.ColumnIndex("B") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if r.ColumnIndex("Z") != -1 {
		t.Error("missing column should return -1")
	}
}

func TestValidate(t *testing.T) {
	r := NewRelation("R", "A:int", "B:float")
	if err := r.Validate(types.Tuple{types.NewInt(1), types.NewFloat(2)}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// int is assignable to float column
	if err := r.Validate(types.Tuple{types.NewInt(1), types.NewInt(2)}); err != nil {
		t.Errorf("int-for-float rejected: %v", err)
	}
	if err := r.Validate(types.Tuple{types.NewInt(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.Validate(types.Tuple{types.NewString("x"), types.NewFloat(1)}); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestCoerce(t *testing.T) {
	r := NewRelation("R", "A:int", "B:float")
	in := types.Tuple{types.NewInt(1), types.NewInt(2)}
	out := r.Coerce(in)
	if out[1].Kind() != types.KindFloat || out[1].Float() != 2 {
		t.Errorf("Coerce = %v", out)
	}
	if in[1].Kind() != types.KindInt {
		t.Error("Coerce mutated input")
	}
	// No copy when nothing to widen.
	same := types.Tuple{types.NewInt(1), types.NewFloat(2)}
	if got := r.Coerce(same); &got[0] != &same[0] {
		t.Error("Coerce copied unnecessarily")
	}
}

func TestCatalog(t *testing.T) {
	r := NewRelation("R", "A:int")
	s := NewRelation("S", "B:int")
	c := NewCatalog(r, s)
	if got, ok := c.Relation("r"); !ok || got != r {
		t.Error("case-insensitive catalog lookup failed")
	}
	if _, ok := c.Relation("T"); ok {
		t.Error("phantom relation found")
	}
	rels := c.Relations()
	if len(rels) != 2 || rels[0] != r || rels[1] != s {
		t.Errorf("Relations() order wrong: %v", rels)
	}
	// Replacement keeps order, no duplicate.
	r2 := NewRelation("R", "A:int", "X:int")
	c.Add(r2)
	rels = c.Relations()
	if len(rels) != 2 || rels[0] != r2 {
		t.Errorf("replacement broke ordering: %v", rels)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("Names() = %v", names)
	}
	// Every spelling resolves to the one handle, replacements included.
	r3 := NewRelation("r", "A:int")
	c.Add(r3)
	for _, name := range []string{"R", "r"} {
		if got, ok := c.Relation(name); !ok || got != r3 {
			t.Errorf("Relation(%q) = %v, want the replacement", name, got)
		}
		if got, ord, ok := c.LookupBytes([]byte(name)); !ok || got != r3 || ord != 0 {
			t.Errorf("LookupBytes(%q) = %v, %d, want the replacement at ordinal 0", name, got, ord)
		}
	}
	if _, ord, ok := c.LookupBytes([]byte("T")); ok || ord != -1 {
		t.Error("phantom relation found by bytes")
	}
	if _, ord, ok := c.Lookup("s"); !ok || ord != 1 || len(c.Relations()) != 2 {
		t.Errorf("Lookup(s) ordinal = %d, Len = %d; want 1 of 2", ord, len(c.Relations()))
	}
}

// TestSealedCatalogRefusesRelations: a served catalog's ordinals are fixed,
// so adding a relation after Seal is a programming error that panics.
func TestSealedCatalogRefusesRelations(t *testing.T) {
	c := NewCatalog(NewRelation("R", "A:int"))
	c.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a sealed catalog did not panic")
		}
		if len(c.Relations()) != 1 {
			t.Fatalf("sealed catalog has %d relations, want 1", len(c.Relations()))
		}
	}()
	c.Add(NewRelation("S", "B:int"))
}
