package runtime

import (
	"math/rand"
	"strings"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/store"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/types"
)

func rstCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("T", "C:int", "D:int"),
	)
}

func compileSQL(t testing.TB, cat *schema.Catalog, src string) *compiler.Compiled {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sql.Analyze(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Translate("q", a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type evt struct {
	rel    string
	insert bool
	vals   []int64
}

func (e evt) tuple() types.Tuple {
	t := make(types.Tuple, len(e.vals))
	for i, v := range e.vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func feed(t *testing.T, eng *Engine, db *store.Store, events []evt) {
	t.Helper()
	for _, e := range events {
		if err := eng.OnEvent(e.rel, e.insert, e.tuple()); err != nil {
			t.Fatal(err)
		}
		if db != nil {
			var err error
			if e.insert {
				err = db.Insert(e.rel, e.tuple())
			} else {
				err = db.Delete(e.rel, e.tuple())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

var paperEvents = []evt{
	{"R", true, []int64{1, 10}}, {"S", true, []int64{10, 100}},
	{"T", true, []int64{100, 7}}, {"R", true, []int64{2, 10}},
	{"S", true, []int64{10, 200}}, {"T", true, []int64{200, 9}},
	{"R", false, []int64{1, 10}}, {"S", false, []int64{10, 100}},
	{"R", true, []int64{3, 20}}, {"S", true, []int64{20, 200}},
	{"T", false, []int64{200, 9}}, {"T", true, []int64{200, 4}},
}

func TestPaperQueryMaintenance(t *testing.T) {
	for _, opts := range []Options{{}, {NoTypedStorage: true}, {NoSliceIndex: true}, {NoTypedStorage: true, NoSliceIndex: true}} {
		cat := rstCatalog()
		c := compileSQL(t, cat, "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C")
		eng, err := NewEngine(c.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		db := store.New(cat)
		feed(t, eng, db, paperEvents)
		// Oracle: evaluate the result map's definition against base data.
		want, err := algebra.EvalScalar(db, c.Program.Maps["q"].Definition, algebra.Env{})
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Map("q").Get(nil)
		if got != want {
			t.Errorf("opts %+v: q = %v, oracle %v", opts, got, want)
		}
	}
}

// TestAllMapInvariants checks after EVERY event that EVERY map equals its
// defining query evaluated over the base state — the strongest invariant
// the system has.
func TestAllMapInvariants(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := store.New(cat)
	for i, e := range paperEvents {
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
				t.Fatalf("event %d map %s: %d entries, oracle %d\nmap: %v\noracle: %v", i, name, len(got), len(want), got, want)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("event %d map %s key %v: %v, oracle %v", i, name, types.DecodeKey(k), got[k], v)
				}
			}
		}
	}
}

func TestRandomStreamAgainstOracle(t *testing.T) {
	cat := rstCatalog()
	queries := []string{
		"select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
		"select sum(R.A) from R, S where R.B = S.B",
		"select B, sum(A) from R group by B",
		"select S.C, sum(R.A * S.C) from R, S where R.B = S.B group by S.C",
		"select sum(x.A * y.A) from R x, R y where x.B = y.B",
		"select count(*) from R, S where R.B = S.B",
		"select sum(R.A) from R, T where R.A < T.D",
	}
	for _, src := range queries {
		r := rand.New(rand.NewSource(7))
		c := compileSQL(t, cat, src)
		eng, err := NewEngine(c.Program, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		db := store.New(cat)
		// Random inserts/deletes over small domains so deletes hit.
		var history []evt
		for i := 0; i < 400; i++ {
			rels := []string{"R", "S", "T"}
			var e evt
			if len(history) > 0 && r.Intn(3) == 0 {
				old := history[r.Intn(len(history))]
				e = evt{rel: old.rel, insert: false, vals: old.vals}
			} else {
				rel := rels[r.Intn(3)]
				e = evt{rel: rel, insert: true, vals: []int64{int64(r.Intn(8)), int64(r.Intn(8))}}
				history = append(history, e)
			}
			feed(t, eng, db, []evt{e})
		}
		for name, decl := range c.Program.Maps {
			if decl.Level > 0 {
				continue // result maps suffice here; invariants tested above
			}
			want, err := algebra.Eval(db, decl.Definition.Body, decl.Definition.GroupVars, algebra.Env{})
			if err != nil {
				t.Fatal(err)
			}
			got := map[types.Key]float64{}
			eng.Map(name).Scan(func(tp types.Tuple, v float64) { got[types.EncodeKey(tp)] = v })
			if len(got) != len(want) {
				t.Fatalf("%s map %s: %d entries vs oracle %d", src, name, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s map %s key %v: %v vs oracle %v", src, name, types.DecodeKey(k), got[k], v)
				}
			}
		}
	}
}

func TestSortedMirrorMaintained(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("sales", "region:string", "amount:int"))
	c := compileSQL(t, cat, "select region, min(amount) from sales group by region")
	var minMap string
	for name, m := range c.Program.Maps {
		if m.Sorted {
			minMap = name
		}
	}
	if minMap == "" {
		t.Fatal("no sorted map")
	}
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(region string, amt int64, insert bool) {
		if err := eng.OnEvent("sales", insert, types.Tuple{types.NewString(region), types.NewInt(amt)}); err != nil {
			t.Fatal(err)
		}
	}
	ins("east", 5, true)
	ins("east", 3, true)
	ins("east", 7, true)
	ins("west", 9, true)
	tree := eng.Map(minMap).Tree()
	if tree == nil {
		t.Fatal("sorted mirror missing")
	}
	east := types.Tuple{types.NewString("east")}
	eastHi := types.Tuple{types.NewString("east"), types.PosInf}
	k, _, ok := tree.First(east, eastHi, false, false)
	if !ok || k[1].Int() != 3 {
		t.Fatalf("min(east) = %v", k)
	}
	// Delete the minimum; the mirror must reveal the next one.
	ins("east", 3, false)
	k, _, ok = tree.First(east, eastHi, false, false)
	if !ok || k[1].Int() != 5 {
		t.Fatalf("min(east) after delete = %v", k)
	}
}

func TestEngineIgnoresUnknownRelations(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select sum(A) from R")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OnEvent("Z", true, types.Tuple{types.NewInt(1)}); err != nil {
		t.Errorf("unknown relation errored: %v", err)
	}
	if err := eng.OnEvent("R", true, types.Tuple{types.NewInt(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestTriggerResolutionAcrossRuns drives trigger resolution through every
// boundary it can get wrong: a run of one relation, a switch of op, a
// switch of spelling, an unknown relation in between (resolved as "no
// trigger"), a relation with no trigger, and back — by name, and through
// the ordinal table bound to two spellings of the catalog — as declared,
// and lowercased in another order — and bound to "R" for a program whose
// triggers say "r".
func TestTriggerResolutionAcrossRuns(t *testing.T) {
	c := compileSQL(t, rstCatalog(), "select B, sum(A) from R group by B")
	row := func(a, b int64) types.Tuple { return types.Tuple{types.NewInt(a), types.NewInt(b)} }
	type event struct {
		Rel    string
		Insert bool
		Args   types.Tuple
	}
	evs := []event{
		{"R", true, row(1, 7)}, {"R", true, row(2, 7)}, {"R", false, row(1, 7)},
		{"Z", true, row(9, 9)}, {"Z", true, row(9, 9)}, {"r", true, row(4, 7)},
		{"S", true, row(7, 1)}, {"R", true, row(8, 7)}, {"R", false, row(2, 7)},
	}
	single, _ := NewEngine(c.Program, Options{})
	for _, ev := range evs {
		if err := single.OnEvent(ev.Rel, ev.Insert, ev.Args); err != nil {
			t.Fatal(err)
		}
	}
	engines := []*Engine{single}
	// The same query compiled against lowercase relation names: bound to the
	// declared "R", it finds its triggers through the case fold.
	lower := compileSQL(t, schema.NewCatalog(schema.NewRelation("r", "A:int", "B:int"),
		schema.NewRelation("s", "B:int", "C:int")), "select B, sum(A) from r group by B")
	for _, bind := range []struct {
		prog *ir.Program
		rels []string
	}{{c.Program, []string{"R", "S", "T"}}, {c.Program, []string{"t", "s", "r"}}, {lower.Program, []string{"R", "S", "T"}}} {
		rels := bind.rels
		table, _ := NewEngine(bind.prog, Options{})
		table.BindRelations(rels)
		for _, ev := range evs {
			ord := len(rels) // Z: past every bound relation
			for i, rel := range rels {
				if strings.EqualFold(rel, ev.Rel) {
					ord = i
				}
			}
			if err := table.OnEventOrd(ord, ev.Insert, ev.Args); err != nil {
				t.Fatal(err)
			}
		}
		engines = append(engines, table)
	}
	for _, eng := range engines {
		if got := eng.Map("q_c1").Get(types.Tuple{types.NewInt(7)}); got != 12 {
			t.Errorf("sum(A) for B=7 = %v, want 4+8", got)
		}
		if got := eng.Map("q_c1").Get(types.Tuple{types.NewInt(9)}); got != 0 {
			t.Errorf("sum(A) for B=9 = %v: an event on the unknown Z reached a trigger", got)
		}
		if eng.Events() != uint64(len(evs)) {
			t.Errorf("events = %d, want %d", eng.Events(), len(evs))
		}
	}
}

func TestMapZeroEntriesRemoved(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select B, sum(A) from R group by B")
	eng, _ := NewEngine(c.Program, Options{})
	in := func(a, b int64, insert bool) {
		_ = eng.OnEvent("R", insert, types.Tuple{types.NewInt(a), types.NewInt(b)})
	}
	in(5, 1, true)
	in(5, 1, false)
	for _, name := range c.Program.MapOrder {
		if n := eng.Map(name).Len(); n != 0 {
			t.Errorf("map %s retains %d zero entries", name, n)
		}
	}
}

// TestLetsAndCondExecution exercises the IR's Let and Cond statement
// features (which the current compiler inlines away, but the IR supports)
// through a hand-built program, over typed and generic storage.
func TestLetsAndCondExecution(t *testing.T) {
	decl := &ir.MapDecl{Name: "out", Keys: []string{"k0"},
		Definition: &algebra.AggSum{GroupVars: []string{"k0"}, Body: algebra.One()}}
	prog := &ir.Program{
		QueryName: "lets",
		Maps:      map[string]*ir.MapDecl{"out": decl},
		MapOrder:  []string{"out"},
		Triggers: []*ir.Trigger{{
			Relation: "R", Insert: true, Params: []string{"@a", "@b"},
			Stmts: []*ir.Stmt{{
				Target: "out",
				Lets: []ir.Let{{Var: "dbl", Expr: &ir.Arith{Op: '*',
					L: &ir.VarRef{Name: "@a"}, R: &ir.Const{Value: types.NewInt(2)}}}},
				Cond:  &ir.CmpE{Op: algebra.CmpGt, L: &ir.VarRef{Name: "dbl"}, R: &ir.Const{Value: types.NewInt(4)}},
				Keys:  []ir.Expr{&ir.VarRef{Name: "@b"}},
				Delta: &ir.VarRef{Name: "dbl"},
			}},
		}},
	}
	for _, opts := range []Options{{}, {NoTypedStorage: true}} {
		eng, err := NewEngine(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		// a=1 → dbl=2, cond 2>4 false → no update.
		if err := eng.OnEvent("R", true, types.Tuple{types.NewInt(1), types.NewInt(7)}); err != nil {
			t.Fatal(err)
		}
		if eng.Map("out").Len() != 0 {
			t.Fatalf("opts %+v: cond did not gate", opts)
		}
		// a=5 → dbl=10, cond true → out[7] += 10.
		if err := eng.OnEvent("R", true, types.Tuple{types.NewInt(5), types.NewInt(7)}); err != nil {
			t.Fatal(err)
		}
		if got := eng.Map("out").Get(types.Tuple{types.NewInt(7)}); got != 10 {
			t.Fatalf("opts %+v: out[7] = %v", opts, got)
		}
	}
}
