package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

// modelMap pairs a Map with a plain Go map holding what it should contain.
type modelMap struct {
	t     *testing.T
	m     *Map
	arity int
	model map[string]float64 // fmt of the key tuple → value
	keys  map[string]types.Tuple
	paths [][]int // bound-position sets registered so far
}

// modelLayouts are the layouts the model test covers: every packed arity
// and a generic map whose first key is a string.
var modelLayouts = []struct {
	name  string
	kind  storeKind
	arity int
}{
	{"int1", storeI1, 1}, {"int2", storeI2, 2}, {"int3", storeI3, 3}, {"int4", storeI4, 4},
	{"generic", storeGeneric, 3},
}

func newModelMap(t *testing.T, layout int) *modelMap {
	l := modelLayouts[layout%len(modelLayouts)]
	names := []algebra.Var{"k0", "k1", "k2", "k3"}[:l.arity]
	decl := &ir.MapDecl{Name: l.name, Keys: names,
		Definition: &algebra.AggSum{GroupVars: names, Body: algebra.One()}}
	return &modelMap{t: t, m: newMapWithKind(decl, l.kind), arity: l.arity,
		model: map[string]float64{}, keys: map[string]types.Tuple{}}
}

// key spells the n-th key of a 3-values-per-position domain: small enough
// that random streams hit the same key again (update, delete-to-zero,
// re-insert into a vacated slot) and that chains hold several entries.
func (mm *modelMap) key(n int) types.Tuple {
	k := make(types.Tuple, mm.arity)
	for i := range k {
		d := int64(n % 3)
		n /= 3
		if mm.m.kind == storeGeneric && i == 0 {
			k[i] = types.NewString(fmt.Sprint("s", d))
		} else {
			k[i] = types.NewInt(d - 1) // negative ints pack too
		}
	}
	return k
}

func (mm *modelMap) add(k types.Tuple, d float64) {
	mm.m.Add(k, d)
	id := k.String()
	if v := mm.model[id] + d; v != 0 {
		mm.model[id], mm.keys[id] = v, k
	} else {
		delete(mm.model, id)
		delete(mm.keys, id)
	}
}

// ensure registers the access path over the positions set in mask.
func (mm *modelMap) ensure(mask int) {
	var pos []int
	for p := 0; p < mm.arity; p++ {
		if mask>>p&1 == 1 {
			pos = append(pos, p)
		}
	}
	mm.m.EnsureSlice(pos)
	for _, have := range mm.paths {
		if slices.Equal(have, pos) {
			return
		}
	}
	mm.paths = append(mm.paths, pos)
}

// check compares the map with the model through every access path: Len,
// Get, Scan, and Iterate under every registered bound-position set for
// every bound sub-key present (plus one that is absent).
func (mm *modelMap) check() {
	t, m := mm.t, mm.m
	t.Helper()
	if m.Len() != len(mm.model) {
		t.Fatalf("Len = %d, model has %d", m.Len(), len(mm.model))
	}
	for id, v := range mm.model {
		if got := m.Get(mm.keys[id]); got != v {
			t.Fatalf("Get(%s) = %v, model %v", id, got, v)
		}
	}
	seen := map[string]float64{}
	m.Scan(func(k types.Tuple, v float64) { seen[k.String()] += v })
	if fmt.Sprint(seen) != fmt.Sprint(mm.model) {
		t.Fatalf("Scan = %v, model %v", seen, mm.model)
	}
	for _, pos := range mm.paths {
		ix := m.EnsureSlice(pos)
		want := map[string]map[string]float64{} // bound sub-key → matching entries
		bounds := map[string]types.Tuple{}
		for id, k := range mm.keys {
			b := make(types.Tuple, len(pos))
			for i, p := range pos {
				b[i] = k[p]
			}
			if want[b.String()] == nil {
				want[b.String()], bounds[b.String()] = map[string]float64{}, b
			}
			want[b.String()][id] = mm.model[id]
		}
		absent := make(types.Tuple, len(pos))
		for i := range absent {
			absent[i] = types.NewInt(99)
		}
		if len(pos) > 0 {
			want[absent.String()], bounds[absent.String()] = map[string]float64{}, absent
		}
		for bid, b := range bounds {
			got := map[string]float64{}
			n := 0
			ix.Iterate(b, func(k types.Tuple, v float64) { got[k.String()] = v; n++ })
			if n != len(got) || fmt.Sprint(got) != fmt.Sprint(want[bid]) {
				t.Fatalf("Iterate%v(%s) visited %d: %v, model %v", pos, bid, n, got, want[bid])
			}
		}
	}
}

// FuzzMapIndexModel drives random Add / delete-to-zero / re-insert /
// late EnsureSlice sequences against every layout and checks the map
// against a plain Go map through every access path. Each op is two bytes:
// the first picks the op (and the delta's sign), the second the key or the
// position mask.
func FuzzMapIndexModel(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 1, 1, 1, 250, 0})
	f.Add(uint8(1), []byte{0, 5, 0, 7, 210, 1, 0, 8, 1, 5, 0, 5, 210, 2, 250, 0})
	f.Add(uint8(3), []byte{210, 3, 0, 9, 0, 10, 0, 36, 210, 8, 1, 9, 0, 40, 1, 10, 210, 6, 0, 9})
	f.Add(uint8(4), []byte{0, 1, 0, 2, 0, 4, 210, 1, 210, 6, 1, 2, 0, 2, 1, 1, 1, 4, 210, 0})
	f.Fuzz(func(t *testing.T, layout uint8, ops []byte) {
		mm := newModelMap(t, int(layout))
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			switch op, arg := ops[i], int(ops[i+1]); {
			case op < 200:
				mm.add(mm.key(arg), float64(1-2*int(op%2)))
			case op < 240:
				mm.ensure(arg % (1 << mm.arity))
			default:
				mm.check()
			}
		}
		mm.check()
	})
}

// TestMapIndexModelLongRun is the fuzz body on a long seeded stream per
// layout, so `go test` covers slot reuse, chain surgery at head, middle and
// tail, table growth and late back-fill without the fuzzer.
func TestMapIndexModelLongRun(t *testing.T) {
	for layout, l := range modelLayouts {
		t.Run(l.name, func(t *testing.T) {
			mm := newModelMap(t, layout)
			x := uint32(12345 + layout)
			next := func(n int) int {
				x = x*1664525 + 1013904223
				return int(x>>8) % n
			}
			mm.ensure(1 % (1 << l.arity))
			for i := 0; i < 4000; i++ {
				switch r := next(100); {
				case r < 90:
					mm.add(mm.key(next(81)), float64(1-2*next(2)))
				case r < 93:
					mm.ensure(next(1 << l.arity)) // late: back-fills a populated map
				default:
					mm.check()
				}
			}
			mm.check()
		})
	}
}

// TestLoopOverOwnTargetRefused pins the construction-time assertion that
// makes in-place chain walks safe: a statement may not write the map it
// iterates.
func TestLoopOverOwnTargetRefused(t *testing.T) {
	keys := []algebra.Var{"k0", "k1"}
	decl := &ir.MapDecl{Name: "m", Keys: keys,
		Definition: &algebra.AggSum{GroupVars: keys, Body: algebra.One()}}
	prog := &ir.Program{
		Maps: map[string]*ir.MapDecl{"m": decl}, MapOrder: []string{"m"},
		Triggers: []*ir.Trigger{{Relation: "R", Insert: true, Params: []algebra.Var{"a"},
			Stmts: []*ir.Stmt{{
				Target: "m",
				Keys:   []ir.Expr{&ir.VarRef{Name: "a"}, &ir.VarRef{Name: "x"}},
				Loops: []ir.Loop{{Map: "m", Bound: []ir.Expr{&ir.VarRef{Name: "a"}, nil},
					FreeVars: []algebra.Var{"", "x"}}},
				Delta: &ir.Const{Value: types.NewInt(1)},
			}}}},
	}
	for _, opts := range []Options{{}, {NoTypedStorage: true}, {Interpret: true}} {
		if _, err := NewEngine(prog, opts); err == nil {
			t.Errorf("%+v: engine accepted a statement looping over its own target", opts)
		}
	}
}

// TestIdenticalEventsIdenticalScans: Scan walks the slot array, so two
// engines fed the same events visit every map's entries in the same order
// — no Go map iteration order leaks out — and snapshot byte for byte.
func TestIdenticalEventsIdenticalScans(t *testing.T) {
	c := compileSQL(t, rstCatalog(), "select S.C, sum(R.A) from R, S where R.B = S.B group by S.C")
	var evs []evt
	x := uint32(7)
	for i := 0; i < 3000; i++ {
		x = x*1664525 + 1013904223
		rel := []string{"R", "S"}[x>>30&1]
		evs = append(evs, evt{rel, x>>20&3 != 0, []int64{int64(x >> 8 & 15), int64(x >> 12 & 15)}})
	}
	var scans, snaps [2]bytes.Buffer
	for i := range scans {
		eng, err := NewEngine(c.Program, Options{})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, eng, nil, evs)
		for _, name := range c.Program.MapOrder {
			eng.Map(name).Scan(func(k types.Tuple, v float64) { fmt.Fprintln(&scans[i], name, k, v) })
		}
		if err := eng.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if scans[0].Len() == 0 || !bytes.Equal(scans[0].Bytes(), scans[1].Bytes()) {
		t.Error("two engines fed identical events scanned their maps in different orders")
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Error("two engines fed identical events wrote different snapshots")
	}
}
