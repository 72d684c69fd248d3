package runtime

import (
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/store"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/types"
)

// existsQuery hand-builds the translated form of
//
//	SELECT SUM(B) FROM R WHERE EXISTS (SELECT * FROM S WHERE S.B = R.A)
//
// before the SQL front end grew EXISTS support; it pins the compiler's
// count-map decorrelation and the runtime's indicator-delta statements
// against the algebra oracle directly.
func existsQuery() *translate.Query {
	cat := rstCatalog()
	body := algebra.NewProd(
		&algebra.Rel{Name: "R", Vars: []algebra.Var{"a", "b"}},
		&algebra.Exists{
			Keys: []algebra.Var{"a"},
			Body: algebra.NewProd(
				&algebra.Rel{Name: "S", Vars: []algebra.Var{"x", "y"}},
				algebra.EqVarVar("x", "a"),
			),
		},
		&algebra.Val{Expr: &algebra.VVar{Name: "b"}},
	)
	return &translate.Query{
		Name:       "q",
		SQL:        "select sum(B) from R where exists (select * from S where S.B = R.A)",
		Catalog:    cat,
		ExistsIdx:  -1,
		Components: []translate.Component{{Kind: translate.CompSum, Term: &algebra.AggSum{Body: body}}},
		Items:      []translate.Item{{Name: "sum", Expr: &translate.RComp{Idx: 0}, Type: types.KindInt}},
	}
}

var existsEvents = []evt{
	{"R", true, []int64{10, 1}},  // no S(10,·) yet: excluded
	{"S", true, []int64{10, 5}},  // R(10,1) flips in
	{"R", true, []int64{20, 2}},  // still excluded
	{"S", true, []int64{10, 6}},  // second witness: no change
	{"S", true, []int64{20, 7}},  // R(20,2) flips in
	{"S", false, []int64{10, 5}}, // one witness left: no change
	{"S", false, []int64{10, 6}}, // last witness gone: R(10,1) flips out
	{"R", false, []int64{20, 2}},
	{"R", true, []int64{20, 9}},
	{"S", false, []int64{20, 7}},
	{"S", true, []int64{30, 1}},
	{"R", true, []int64{30, 4}},
}

func TestExistsMaintenanceHandBuilt(t *testing.T) {
	for _, opts := range []Options{{}, {NoTypedStorage: true}} {
		q := existsQuery()
		c, err := compiler.Compile(q)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		eng, err := NewEngine(c.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		db := store.New(q.Catalog)
		for i, e := range existsEvents {
			feed(t, eng, db, []evt{e})
			for name, decl := range c.Program.Maps {
				want, err := algebra.Eval(db, decl.Definition.Body, decl.Definition.GroupVars, algebra.Env{})
				if err != nil {
					t.Fatal(err)
				}
				got := map[types.Key]float64{}
				eng.Map(name).Scan(func(tp types.Tuple, v float64) {
					got[types.EncodeKey(tp)] = v
				})
				if len(got) != len(want) {
					t.Fatalf("opts %+v event %d map %s: %d entries, oracle %d\nmap: %v\noracle: %v\nprogram:\n%s",
						opts, i, name, len(got), len(want), got, want, c.Program)
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("opts %+v event %d map %s key %v: %v, oracle %v\nprogram:\n%s",
							opts, i, name, types.DecodeKey(k), got[k], v, c.Program)
					}
				}
			}
		}
	}
}
