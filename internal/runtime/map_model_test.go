package runtime

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

// modelMap pairs a Map with a plain Go map holding what it should contain.
type modelMap struct {
	t      *testing.T
	m      *Map
	arity  int
	domain [][]types.Value    // the values each key position draws from
	model  map[string]float64 // encoded key tuple → value
	keys   map[string]types.Tuple
	paths  [][]int // bound-position sets registered so far
	rng    uint32  // draws the ordered reads' bounds
}

// modelLayouts are the layouts the model test covers: every packed arity
// and a generic map whose first key is a string, each plain and sorted.
var modelLayouts = []struct {
	name   string
	kind   storeKind
	arity  int
	sorted bool
}{
	{"int1", storeI1, 1, false}, {"int2", storeI2, 2, false}, {"int3", storeI3, 3, false}, {"int4", storeI4, 4, false},
	{"generic", storeGeneric, 3, false},
	{"sorted-int1", storeI1, 1, true}, {"sorted-int2", storeI2, 2, true}, {"sorted-int3", storeI3, 3, true},
	{"sorted-int4", storeI4, 4, true}, {"sorted-generic", storeGeneric, 3, true},
}

// Key domains: three values per position, small enough that random
// streams hit the same key again (update, delete-to-zero, re-insert into a
// vacated slot) and that chains hold several entries. A sorted generic
// map's middle position mixes what the order has to place: NULL, −0.0
// (stored as +0.0), non-dyadic floats, and ints equal in value to a float
// key beside them — distinct keys that types.Value.Compare calls equal.
var (
	modelInts    = []types.Value{types.NewInt(-1), types.NewInt(0), types.NewInt(1)} // negative ints pack too
	modelStrings = []types.Value{types.NewString("s0"), types.NewString("s1"), types.NewString("s2")}
	modelMixed   = []types.Value{types.Null, types.NewFloat(math.Copysign(0, -1)), types.NewInt(0),
		types.NewFloat(0.1), types.NewFloat(0.3), types.NewInt(1), types.NewFloat(1)}
)

func newModelMap(t *testing.T, layout int) *modelMap {
	l := modelLayouts[layout%len(modelLayouts)]
	names := []algebra.Var{"k0", "k1", "k2", "k3"}[:l.arity]
	decl := &ir.MapDecl{Name: l.name, Keys: names, Sorted: l.sorted,
		Definition: &algebra.AggSum{GroupVars: names, Body: algebra.One()}}
	domain := make([][]types.Value, l.arity)
	for i := range domain {
		switch {
		case l.kind != storeGeneric:
			domain[i] = modelInts
		case i == 0:
			domain[i] = modelStrings
		case i == 1 && l.sorted:
			domain[i] = modelMixed
		default:
			domain[i] = modelInts
		}
	}
	return &modelMap{t: t, m: newMapWithKind(decl, l.kind), arity: l.arity, domain: domain,
		model: map[string]float64{}, keys: map[string]types.Tuple{}, rng: uint32(layout)}
}

// key spells the n-th key of the layout's domain.
func (mm *modelMap) key(n int) types.Tuple {
	k := make(types.Tuple, mm.arity)
	for i, d := range mm.domain {
		k[i] = d[n%len(d)]
		n /= len(d)
	}
	return k
}

func modelID(k types.Tuple) string { return string(types.EncodeKey(k)) }

func (mm *modelMap) add(k types.Tuple, d float64) {
	mm.m.Add(k, d)
	id := modelID(k)
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
	m.Scan(func(k types.Tuple, v float64) { seen[modelID(k)] += v })
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
			if want[modelID(b)] == nil {
				want[modelID(b)], bounds[modelID(b)] = map[string]float64{}, b
			}
			want[modelID(b)][id] = mm.model[id]
		}
		absent := make(types.Tuple, len(pos))
		for i := range absent {
			absent[i] = types.NewInt(99)
		}
		if len(pos) > 0 {
			want[modelID(absent)], bounds[modelID(absent)] = map[string]float64{}, absent
		}
		for bid, b := range bounds {
			got := map[string]float64{}
			n := 0
			ix.Iterate(b, func(k types.Tuple, v float64) { got[modelID(k)] = v; n++ })
			if n != len(got) || fmt.Sprint(got) != fmt.Sprint(want[bid]) {
				t.Fatalf("Iterate%v(%v) visited %d: %v, model %v", pos, bounds[bid], n, got, want[bid])
			}
		}
	}
	mm.checkOrder()
}

// modelCompare is the order a sorted map keeps: types.Tuple.Compare, with
// the ties it leaves between distinct keys broken by value kind.
func modelCompare(a, b types.Tuple) int {
	if c := a.Compare(b); c != 0 {
		return c
	}
	for i := range a {
		if c := cmp.Compare(a[i].Kind(), b[i].Kind()); c != 0 {
			return c
		}
	}
	return 0
}

type modelEntry struct {
	k types.Tuple
	v float64
}

func (e modelEntry) String() string { return fmt.Sprintf("%v=%v", e.k, e.v) }

// checkOrder compares ScanSorted on every layout, and First, Last and
// RangeSum on sorted ones, with the model sorted by modelCompare. Each
// ordered read takes random prefix bounds — open or closed, drawn from the
// key domain plus a float between ints, NULL and types.PosInf — or none.
func (mm *modelMap) checkOrder() {
	t, m := mm.t, mm.m
	t.Helper()
	want := make([]modelEntry, 0, len(mm.model))
	for id, v := range mm.model {
		want = append(want, modelEntry{mm.keys[id], v})
	}
	slices.SortFunc(want, func(a, b modelEntry) int { return modelCompare(a.k, b.k) })
	var got []modelEntry
	m.ScanSorted(func(k types.Tuple, v float64) { got = append(got, modelEntry{k.Clone(), v}) })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ScanSorted = %v, model %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if modelCompare(got[i-1].k, got[i].k) >= 0 {
			t.Fatalf("ScanSorted out of order at %d: %v then %v", i, got[i-1].k, got[i].k)
		}
	}
	if m.order == nil {
		return
	}
	for q := 0; q < 24; q++ {
		lo, hi := mm.bound(), mm.bound()
		loOpen, hiOpen := mm.draw(2) == 0, mm.draw(2) == 0
		var in []modelEntry
		sum := 0.0
		for _, e := range want {
			if aboveBound(e.k, lo, loOpen) && belowBound(e.k, hi, hiOpen) {
				in = append(in, e)
				sum += e.v
			}
		}
		if got := m.RangeSum(lo, hi, loOpen, hiOpen); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("RangeSum(%v, %v, %v, %v) = %v, model %v over %v", lo, hi, loOpen, hiOpen, got, sum, in)
		}
		for _, last := range []bool{false, true} {
			read, name := m.First, "First"
			var exp modelEntry
			if len(in) > 0 {
				exp = in[0]
			}
			if last {
				read, name = m.Last, "Last"
				if len(in) > 0 {
					exp = in[len(in)-1]
				}
			}
			k, v, ok := read(lo, hi, loOpen, hiOpen)
			if ok != (len(in) > 0) || ok && (modelID(k) != modelID(exp.k) || v != exp.v) {
				t.Fatalf("%s(%v, %v, %v, %v) = %v %v %v, model %v", name, lo, hi, loOpen, hiOpen, k, v, ok, in)
			}
		}
	}
}

func (mm *modelMap) draw(n int) int {
	mm.rng = mm.rng*1664525 + 1013904223
	return int(mm.rng>>8) % n
}

// bound draws a random prefix bound, nil (unbounded) one time in eight.
func (mm *modelMap) bound() types.Tuple {
	if mm.draw(8) == 0 {
		return nil
	}
	b := make(types.Tuple, mm.draw(mm.arity+1))
	for i := range b {
		d := mm.domain[i]
		switch r := mm.draw(len(d) + 3); {
		case r < len(d):
			b[i] = d[r]
		case r == len(d):
			b[i] = types.NewFloat(0.5)
		case r == len(d)+1:
			b[i] = types.Null
		default:
			b[i] = types.PosInf
		}
	}
	return b
}

// aboveBound and belowBound are the range predicates RangeSum documents,
// spelled out over types.Tuple.Compare; a nil bound admits every key.
func aboveBound(k, lo types.Tuple, open bool) bool {
	if lo == nil {
		return true
	}
	c := k.Compare(lo)
	return c > 0 || c == 0 && !open
}

func belowBound(k, hi types.Tuple, open bool) bool {
	if hi == nil {
		return true
	}
	c := k.Compare(hi)
	return c < 0 || c == 0 && !open
}

// FuzzMapIndexModel drives random Add / delete-to-zero / re-insert /
// late EnsureSlice sequences against every layout, plain and sorted, and
// checks the map against a plain Go map through every access path,
// ordered reads included. Each op is two bytes: the first picks the op
// (and the delta's sign), the second the key or the position mask.
func FuzzMapIndexModel(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 1, 1, 1, 250, 0})
	f.Add(uint8(1), []byte{0, 5, 0, 7, 210, 1, 0, 8, 1, 5, 0, 5, 210, 2, 250, 0})
	f.Add(uint8(3), []byte{210, 3, 0, 9, 0, 10, 0, 36, 210, 8, 1, 9, 0, 40, 1, 10, 210, 6, 0, 9})
	f.Add(uint8(4), []byte{0, 1, 0, 2, 0, 4, 210, 1, 210, 6, 1, 2, 0, 2, 1, 1, 1, 4, 210, 0})
	// Sorted layouts: births out of key order, a death at the front and in
	// the middle, re-insertion of a dead key, reads between.
	f.Add(uint8(5), []byte{0, 2, 0, 0, 0, 1, 250, 0, 1, 0, 250, 0, 0, 0, 1, 1, 250, 0})
	f.Add(uint8(6), []byte{0, 8, 0, 3, 0, 5, 0, 0, 210, 1, 1, 3, 250, 0, 0, 3, 1, 8, 250, 0})
	f.Add(uint8(8), []byte{0, 80, 0, 1, 0, 40, 0, 27, 1, 40, 250, 0, 210, 5, 0, 40, 1, 1, 250, 0})
	f.Add(uint8(9), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 250, 0, 1, 3, 0, 10, 1, 1, 210, 2, 250, 0, 0, 3})
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

// TestOrderedIndexLeaves runs the sorted layouts over key sets many leaves
// wide: births until leaves split, deaths until they empty and merge, and
// re-births into the thinned index, checked against the model throughout.
// Merging keeps every two neighbouring leaves at least half a leaf between
// them, so the leaf count stays within n/(leafCap/4) + 1 for n live keys.
func TestOrderedIndexLeaves(t *testing.T) {
	wide := make([]types.Value, 4*leafCap)
	for i := range wide {
		wide[i] = types.NewInt(int64(i*7919%len(wide) - leafCap))
	}
	for _, layout := range []int{5, 9} { // sorted-int1, sorted-generic
		l := modelLayouts[layout]
		t.Run(l.name, func(t *testing.T) {
			mm := newModelMap(t, layout)
			mm.domain[len(mm.domain)-1] = wide
			x := uint32(99 + layout)
			next := func(n int) int {
				x = x*1664525 + 1013904223
				return int(x>>8) % n
			}
			span := len(wide)
			for _, d := range mm.domain[:len(mm.domain)-1] {
				span *= len(d)
			}
			leaves := func() {
				t.Helper()
				o := mm.m.order
				for j, lf := range o.leaves {
					if lf.n < 1 || lf.n > leafCap {
						t.Fatalf("leaf %d holds %d slots", j, lf.n)
					}
				}
				if n := mm.m.Len(); len(o.leaves) > n/(leafCap/4)+1 {
					t.Fatalf("%d leaves for %d keys", len(o.leaves), n)
				}
			}
			var live []types.Tuple
			for _, phase := range []struct {
				births, deaths, ops int
				grow                bool
			}{
				{9, 1, 6000, true},  // grow: splits
				{1, 9, 9000, false}, // shrink: empty and merged leaves
				{8, 2, 6000, true},  // regrow into reused leaves
			} {
				for i := 0; i < phase.ops; i++ {
					if next(phase.births+phase.deaths) < phase.births {
						k := mm.key(next(span))
						if mm.model[modelID(k)] == 0 {
							live = append(live, k)
						}
						mm.add(k, 1)
					} else if len(live) > 0 {
						at := next(len(live))
						k := live[at]
						live[at] = live[len(live)-1]
						live = live[:len(live)-1]
						mm.add(k, -mm.model[modelID(k)])
					}
					if i%1000 == 0 {
						leaves()
					}
				}
				leaves()
				if n := len(mm.m.order.leaves); phase.grow && n < 3 || !phase.grow && n > 1 {
					t.Fatalf("phase ended with %d keys in %d leaves", len(live), n)
				}
				mm.check()
			}
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
	for _, opts := range []Options{{}, {NoSliceIndex: true}} {
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
