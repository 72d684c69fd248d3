package runtime

import (
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/store"
	"dbtoaster/internal/tpch"
	"dbtoaster/internal/types"
)

// TestMapLayoutsPinned pins the layout decision on the demo queries: how
// many maps each program has and how many of them take the generic layout.
// A change here changes what the served engines compile and store, so it
// must be deliberate.
func TestMapLayoutsPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sql        string
		cat        *schema.Catalog
		maps, gens int
	}{
		{"ssb-4.1", tpch.QuerySSB41, tpch.Catalog(), 51, 23},
		{"ssb-1.1", tpch.QuerySSB11, tpch.Catalog(), 3, 1},
		{"ssb-2.1", tpch.QuerySSB21, tpch.Catalog(), 19, 9},
		{"ssb-3.1", tpch.QuerySSB31, tpch.Catalog(), 19, 14},
		{"load-monitor", tpch.QueryLoadMonitor, tpch.Catalog(), 5, 0},
		{"dim-coverage", tpch.QueryDimCoverage, tpch.Catalog(), 5, 2},
		{"vwap-threshold", orderbook.QueryVWAPThreshold, orderbook.Catalog(), 2, 2},
		{"bid-turnover", orderbook.QueryBidTurnover, orderbook.Catalog(), 1, 1},
		{"broker-activity", orderbook.QueryBrokerActivity, orderbook.Catalog(), 2, 0},
		{"broker-avg-price", orderbook.QueryBrokerAvgPrice, orderbook.Catalog(), 2, 0},
		{"two-sided-volume", orderbook.QueryTwoSidedVolume, orderbook.Catalog(), 3, 1},
		{"spread-cover", orderbook.QueryBidAskSpreadCover, orderbook.Catalog(), 5, 2},
	} {
		c := compileSQL(t, tc.cat, tc.sql)
		eng, err := NewEngine(c.Program, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gens := 0
		for _, st := range eng.MemStats() {
			if st.Layout == storeGeneric.String() {
				gens++
			}
		}
		if maps := len(eng.MemStats()); maps != tc.maps || gens != tc.gens {
			t.Errorf("%s: %d maps, %d generic; pinned %d, %d", tc.name, maps, gens, tc.maps, tc.gens)
		}
	}
}

// TestUnprovenProbeKeepsMapGeneric: a map whose key positions are all
// written with ints, but which some access probes with a key the compiler
// cannot prove int, takes the generic layout in its one build. Here m
// (count of R by A, int-annotated) is read by a lookup keyed by the float
// column R.B and by a loop bound S.C / 1 (integer division is nullable, so
// not provably int); s (count of S by C) is probed only with ints and
// packs. Every map must equal its definition over the base tables.
func TestUnprovenProbeKeepsMapGeneric(t *testing.T) {
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:float"),
		schema.NewRelation("S", "C:int"),
	)
	intKey := []types.Kind{types.KindInt}
	decl := func(name string, keys []algebra.Var, kinds []types.Kind, body algebra.Term) *ir.MapDecl {
		return &ir.MapDecl{Name: name, Keys: keys, KeyKinds: kinds, ValueKind: types.KindInt,
			Definition: &algebra.AggSum{GroupVars: keys, Body: body}}
	}
	k0 := []algebra.Var{"k0"}
	maps := []*ir.MapDecl{
		decl("m", k0, intKey, algebra.NewRel("R", "k0", "b")),
		decl("s", k0, intKey, algebra.NewRel("S", "k0")),
		// pairs = |R ⋈ S on A = C|
		decl("pairs", nil, nil, algebra.NewProd(algebra.NewRel("R", "c", "b"), algebra.NewRel("S", "c"))),
		// miss = |{(x, y) in R × R : y.A = x.B}|: B is never integral here,
		// so it stays 0, and so does every m[B] the statements add.
		decl("miss", nil, nil, algebra.NewProd(algebra.NewRel("R", "a", "b"), algebra.NewRel("R", "b", "b2"))),
	}
	prog := &ir.Program{QueryName: "probe", Maps: map[string]*ir.MapDecl{}}
	for _, d := range maps {
		prog.Maps[d.Name] = d
		prog.MapOrder = append(prog.MapOrder, d.Name)
	}
	v := func(name string) ir.Expr { return &ir.VarRef{Name: name} }
	one := func(sign int64) ir.Expr { return &ir.Const{Value: types.NewInt(sign)} }
	times := func(sign int64, x ir.Expr) ir.Expr { return &ir.Arith{Op: '*', L: one(sign), R: x} }
	for _, sign := range []int64{1, -1} {
		prog.Triggers = append(prog.Triggers,
			&ir.Trigger{Relation: "R", Insert: sign > 0, Params: []algebra.Var{"@a", "@b"},
				ParamKinds: []types.Kind{types.KindInt, types.KindFloat},
				Stmts: []*ir.Stmt{
					{Target: "pairs", Delta: times(sign, &ir.Lookup{Map: "s", Keys: []ir.Expr{v("@a")}})},
					{Target: "miss", Delta: times(sign, &ir.Lookup{Map: "m", Keys: []ir.Expr{v("@b")}})},
					{Target: "m", Keys: []ir.Expr{v("@a")}, Delta: one(sign)},
				}},
			&ir.Trigger{Relation: "S", Insert: sign > 0, Params: []algebra.Var{"@c"},
				ParamKinds: []types.Kind{types.KindInt},
				Stmts: []*ir.Stmt{
					{Target: "pairs", Delta: times(sign, v("n")), Loops: []ir.Loop{{Map: "m",
						Bound:    []ir.Expr{&ir.Arith{Op: '/', L: v("@c"), R: one(1)}},
						FreeVars: []algebra.Var{""}, ValueVar: "n"}}},
					{Target: "s", Keys: []ir.Expr{v("@c")}, Delta: one(sign)},
				}},
		)
	}
	eng, err := NewEngine(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]storeKind{"m": storeGeneric, "s": storeI1} {
		if got := eng.maps[name].kind; got != want {
			t.Fatalf("map %s: layout %s, want %s", name, got, want)
		}
	}
	db := store.New(cat)
	var live []types.Tuple
	x := uint32(11)
	for i := 0; i < 400; i++ {
		x = x*1664525 + 1013904223
		rel, insert := "R", true
		tup := types.Tuple{types.NewInt(int64(x >> 8 & 7)), types.NewFloat(float64(x>>12&7) + 0.5)}
		if x>>28&1 == 1 {
			rel, tup = "S", types.Tuple{types.NewInt(int64(x >> 16 & 7))}
		}
		if x>>24&3 == 0 && len(live) > 0 {
			j := int(x>>4) % len(live)
			tup, insert = live[j], false
			live = append(live[:j], live[j+1:]...)
			rel = "R"
			if len(tup) == 1 {
				rel = "S"
			}
		} else {
			live = append(live, tup)
		}
		if err := eng.OnEvent(rel, insert, tup); err != nil {
			t.Fatal(err)
		}
		if insert {
			err = db.Insert(rel, tup)
		} else {
			err = db.Delete(rel, tup)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range maps {
			want, err := algebra.Eval(db, d.Definition.Body, d.Definition.GroupVars, algebra.Env{})
			if err != nil {
				t.Fatal(err)
			}
			got := mapState(eng.maps[d.Name])
			if len(got) != len(want) {
				t.Fatalf("event %d map %s: %d entries, definition %d", i, d.Name, len(got), len(want))
			}
			for k, w := range want {
				if got[k] != w {
					t.Fatalf("event %d map %s key %v: %v, definition %v", i, d.Name, types.DecodeKey(k), got[k], w)
				}
			}
		}
	}
	if eng.Map("pairs").Get(nil) == 0 {
		t.Fatal("no join pair ever formed: the loop bound probe was not exercised")
	}
}
