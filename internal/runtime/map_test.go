package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

func newTestMap(sorted bool, keys ...algebra.Var) *Map {
	return NewMap(&ir.MapDecl{Name: "t", Keys: keys, Sorted: sorted,
		Definition: &algebra.AggSum{GroupVars: keys, Body: algebra.One()}})
}

func k(vals ...int64) types.Tuple {
	t := make(types.Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func TestMapAddGetDelete(t *testing.T) {
	m := newTestMap(false, "k0")
	m.Add(k(1), 5)
	m.Add(k(1), 3)
	if got := m.Get(k(1)); got != 8 {
		t.Errorf("Get = %v", got)
	}
	m.Add(k(1), -8)
	if m.Len() != 0 {
		t.Error("zero entry not removed")
	}
	if got := m.Get(k(1)); got != 0 {
		t.Errorf("absent Get = %v", got)
	}
	m.Add(k(2), 0) // no-op
	if m.Len() != 0 {
		t.Error("zero add created entry")
	}
}

func TestMapKeyNotAliased(t *testing.T) {
	m := newTestMap(false, "k0")
	key := k(7)
	m.Add(key, 1)
	key[0] = types.NewInt(99) // caller reuses the buffer
	if m.Get(k(7)) != 1 {
		t.Error("map aliased the caller's key buffer")
	}
}

func TestSliceIndexMaintained(t *testing.T) {
	m := newTestMap(false, "k0", "k1")
	s := m.EnsureSlice([]int{0})
	m.Add(k(1, 10), 2)
	m.Add(k(1, 20), 3)
	m.Add(k(2, 10), 4)
	sum := 0.0
	count := 0
	s.Iterate(k(1), func(tp types.Tuple, v float64) {
		sum += v
		count++
		if tp[0].Int() != 1 {
			t.Errorf("slice yielded wrong bucket: %v", tp)
		}
	})
	if count != 2 || sum != 5 {
		t.Errorf("slice count=%d sum=%v", count, sum)
	}
	// Deletion updates the index.
	m.Add(k(1, 10), -2)
	count = 0
	s.Iterate(k(1), func(types.Tuple, float64) { count++ })
	if count != 1 {
		t.Errorf("after delete count = %d", count)
	}
	// Empty bucket iterates nothing.
	s.Iterate(k(9), func(types.Tuple, float64) { t.Error("phantom bucket") })
}

func TestEnsureSliceIdempotentAndLateBackfill(t *testing.T) {
	m := newTestMap(false, "k0", "k1")
	a := m.EnsureSlice([]int{1})
	b := m.EnsureSlice([]int{1})
	if a != b {
		t.Error("duplicate slice created")
	}
	m.Add(k(1, 2), 1)
	m.Add(k(3, 2), 4)
	m.Add(k(3, 7), 9)
	// A slice registered after data arrives (an engine adopting a populated
	// shared map, or taking over a caught-up transfer) backfills from the
	// existing entries and stays live for later updates.
	late := m.EnsureSlice([]int{0})
	var sum float64
	late.Iterate(k(3), func(_ types.Tuple, v float64) { sum += v })
	if sum != 13 {
		t.Errorf("late slice backfill sum = %v, want 13", sum)
	}
	m.Add(k(3, 9), 2)
	sum = 0
	late.Iterate(k(3), func(_ types.Tuple, v float64) { sum += v })
	if sum != 15 {
		t.Errorf("late slice after update sum = %v, want 15", sum)
	}
}

func TestScanSortedOrder(t *testing.T) {
	m := newTestMap(false, "k0")
	for _, v := range []int64{5, 1, 9, 3} {
		m.Add(k(v), float64(v))
	}
	var got []int64
	m.ScanSorted(func(tp types.Tuple, _ float64) { got = append(got, tp[0].Int()) })
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestMapStats(t *testing.T) {
	m := newTestMap(true, "k0")
	m.EnsureSlice(nil) // nil positions: degenerate but allowed pre-data
	m.Add(k(1), 1)
	st := m.Stats()
	if st.Name != "t" || st.Entries != 1 || !st.Sorted || st.Slices != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cat := rstCatalog()
	src := "select S.C, sum(R.A) from R, S where R.B = S.B group by S.C"
	c := compileSQL(t, cat, src)
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng, nil, []evt{
		{"R", true, []int64{1, 10}}, {"S", true, []int64{10, 7}},
		{"R", true, []int64{2, 10}}, {"S", true, []int64{10, 8}},
		{"R", false, []int64{1, 10}},
	})
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh engine of the same program.
	eng2, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Program.MapOrder {
		want := map[types.Key]float64{}
		eng.Map(name).Scan(func(tp types.Tuple, v float64) { want[types.EncodeKey(tp)] = v })
		got := map[types.Key]float64{}
		eng2.Map(name).Scan(func(tp types.Tuple, v float64) { got[types.EncodeKey(tp)] = v })
		if len(got) != len(want) {
			t.Fatalf("map %s: %d entries vs %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("map %s key %v: %v vs %v", name, types.DecodeKey(k), got[k], v)
			}
		}
	}
	// The restored engine keeps maintaining correctly (indexes rebuilt).
	feed(t, eng, nil, []evt{{"R", true, []int64{5, 10}}})
	feed(t, eng2, nil, []evt{{"R", true, []int64{5, 10}}})
	k7 := types.Tuple{types.NewInt(7)}
	if eng.Map("q_c1").Get(k7) != eng2.Map("q_c1").Get(k7) {
		t.Error("restored engine diverged after further events")
	}
}

func TestSnapshotRestoreOverwritesState(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select B, sum(A) from R group by B")
	eng, _ := NewEngine(c.Program, Options{})
	feed(t, eng, nil, []evt{{"R", true, []int64{1, 1}}})
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Diverge, then restore: state must match the snapshot exactly.
	feed(t, eng, nil, []evt{{"R", true, []int64{9, 9}}})
	if err := eng.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if eng.Map("q_c1").Len() != 1 || eng.Map("q_c1").Get(types.Tuple{types.NewInt(1)}) != 1 {
		t.Error("restore did not reset diverged state")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select sum(A) from R")
	eng, _ := NewEngine(c.Program, Options{})
	if err := eng.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	if err := eng.Restore(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestTypedMapPackedParity drives identical streams through the packed
// int-key layouts and the generic byte-key layout and requires identical
// contents, zero-entry removal, and ScanSorted output.
func TestTypedMapPackedParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  storeKind
		arity int
	}{
		{"int1", storeI1, 1},
		{"int2", storeI2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := []algebra.Var{"k0", "k1"}[:tc.arity]
			decl := &ir.MapDecl{Name: "t", Keys: keys,
				Definition: &algebra.AggSum{GroupVars: keys, Body: algebra.One()}}
			packed := newMapWithKind(decl, tc.kind)
			generic := NewMap(decl)
			r := rand.New(rand.NewSource(23))
			mk := func() types.Tuple {
				vals := make([]int64, tc.arity)
				for i := range vals {
					vals[i] = int64(r.Intn(12) - 6) // negative keys pack too
				}
				return k(vals...)
			}
			for i := 0; i < 4000; i++ {
				key := mk()
				d := float64(r.Intn(9) - 4)
				packed.Add(key, d)
				generic.Add(key, d)
			}
			if packed.Len() != generic.Len() {
				t.Fatalf("lengths differ: packed %d, generic %d", packed.Len(), generic.Len())
			}
			generic.Scan(func(tp types.Tuple, v float64) {
				if got := packed.Get(tp); got != v {
					t.Fatalf("key %v: packed %v, generic %v", tp, got, v)
				}
			})
			var ps, gs []string
			packed.ScanSorted(func(tp types.Tuple, v float64) {
				ps = append(ps, fmt.Sprintf("%v=%v", tp, v))
			})
			generic.ScanSorted(func(tp types.Tuple, v float64) {
				gs = append(gs, fmt.Sprintf("%v=%v", tp, v))
			})
			if len(ps) != len(gs) {
				t.Fatalf("sorted scan lengths differ: %d vs %d", len(ps), len(gs))
			}
			for i := range ps {
				if ps[i] != gs[i] {
					t.Fatalf("sorted entry %d: packed %s, generic %s", i, ps[i], gs[i])
				}
			}
		})
	}
}
