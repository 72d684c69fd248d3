package treap

import (
	"math/rand"
	"sort"
	"testing"

	"dbtoaster/internal/types"
)

func key(vals ...int64) types.Tuple {
	t := make(types.Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewInt(v)
	}
	return t
}

func TestSetGetDelete(t *testing.T) {
	tr := New()
	tr.Set(key(3), 30)
	tr.Set(key(1), 10)
	tr.Set(key(2), 20)
	if tr.Len() != 3 || tr.Sum() != 60 {
		t.Fatalf("len=%d sum=%v", tr.Len(), tr.Sum())
	}
	if v, ok := tr.Get(key(2)); !ok || v != 20 {
		t.Errorf("Get(2) = %v %v", v, ok)
	}
	tr.Set(key(2), 25)
	if v, _ := tr.Get(key(2)); v != 25 || tr.Sum() != 65 {
		t.Errorf("update failed: %v sum=%v", v, tr.Sum())
	}
	tr.Set(key(2), 0) // delete
	if _, ok := tr.Get(key(2)); ok || tr.Len() != 2 {
		t.Error("delete failed")
	}
}

func TestAdd(t *testing.T) {
	tr := New()
	tr.Add(key(1), 5)
	tr.Add(key(1), 3)
	if v, _ := tr.Get(key(1)); v != 8 {
		t.Errorf("Add accumulate = %v", v)
	}
	tr.Add(key(1), -8) // cancels to zero → removed
	if _, ok := tr.Get(key(1)); ok || tr.Len() != 0 {
		t.Error("zero-cancel delete failed")
	}
	tr.Add(key(2), 0) // no-op
	if tr.Len() != 0 {
		t.Error("zero add created entry")
	}
}

func TestWalkOrdered(t *testing.T) {
	tr := New()
	for _, v := range []int64{5, 1, 4, 2, 3} {
		tr.Set(key(v), float64(v))
	}
	var got []int64
	tr.Walk(func(k types.Tuple, _ float64) bool {
		got = append(got, k[0].Int())
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not ordered: %v", got)
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(types.Tuple, float64) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("walk early stop visited %d", n)
	}
}

func TestRangeSumSimple(t *testing.T) {
	tr := New()
	for i := int64(1); i <= 10; i++ {
		tr.Set(key(i), float64(i))
	}
	cases := []struct {
		lo, hi         types.Tuple
		loOpen, hiOpen bool
		want           float64
	}{
		{nil, nil, false, false, 55},
		{key(3), key(5), false, false, 12}, // 3+4+5
		{key(3), key(5), true, false, 9},   // 4+5
		{key(3), key(5), false, true, 7},   // 3+4
		{key(3), key(5), true, true, 4},    // 4
		{key(8), nil, true, false, 19},     // 9+10
		{nil, key(2), false, true, 1},      // 1
		{key(11), nil, false, false, 0},
		{key(5), key(3), false, false, 0}, // empty range
	}
	for _, c := range cases {
		if got := tr.RangeSum(c.lo, c.hi, c.loOpen, c.hiOpen); got != c.want {
			t.Errorf("RangeSum(%v,%v,%v,%v) = %v, want %v", c.lo, c.hi, c.loOpen, c.hiOpen, got, c.want)
		}
	}
}

func TestPrefixBounds(t *testing.T) {
	// Composite keys (group, value): prefix-bounded queries per group.
	tr := New()
	tr.Set(key(1, 10), 1)
	tr.Set(key(1, 20), 2)
	tr.Set(key(2, 5), 4)
	tr.Set(key(2, 30), 8)
	g1hi := types.Tuple{types.NewInt(1), types.PosInf}
	if got := tr.RangeSum(key(1), g1hi, false, false); got != 3 {
		t.Errorf("group-1 sum = %v", got)
	}
	// Threshold within group 2: values > 5.
	if got := tr.RangeSum(key(2, 5), types.Tuple{types.NewInt(2), types.PosInf}, true, false); got != 8 {
		t.Errorf("group-2 >5 sum = %v", got)
	}
	// Empty group.
	if got := tr.RangeSum(key(3), types.Tuple{types.NewInt(3), types.PosInf}, false, false); got != 0 {
		t.Errorf("phantom group sum = %v", got)
	}
}

// TestAgainstReference drives random operations against a sorted-slice
// reference implementation.
func TestAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New()
	ref := map[int64]float64{}
	for op := 0; op < 5000; op++ {
		k := int64(r.Intn(200))
		switch r.Intn(3) {
		case 0:
			v := float64(r.Intn(19) - 9)
			tr.Set(key(k), v)
			if v == 0 {
				delete(ref, k)
			} else {
				ref[k] = v
			}
		case 1:
			d := float64(r.Intn(19) - 9)
			tr.Add(key(k), d)
			ref[k] += d
			if ref[k] == 0 {
				delete(ref, k)
			}
		case 2:
			lo := int64(r.Intn(200))
			hi := lo + int64(r.Intn(50))
			loOpen, hiOpen := r.Intn(2) == 0, r.Intn(2) == 0
			var want float64
			for rk, rv := range ref {
				okLo := rk > lo || (!loOpen && rk == lo)
				okHi := rk < hi || (!hiOpen && rk == hi)
				if okLo && okHi {
					want += rv
				}
			}
			if got := tr.RangeSum(key(lo), key(hi), loOpen, hiOpen); got != want {
				t.Fatalf("op %d: RangeSum(%d,%d,%v,%v) = %v, want %v", op, lo, hi, loOpen, hiOpen, got, want)
			}
		}
	}
	// Final structural checks.
	if tr.Len() != len(ref) {
		t.Fatalf("len = %d, ref %d", tr.Len(), len(ref))
	}
	var keys []int64
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	tr.Walk(func(k types.Tuple, v float64) bool {
		if k[0].Int() != keys[i] || v != ref[keys[i]] {
			t.Fatalf("walk mismatch at %d: %v=%v, want %d=%v", i, k, v, keys[i], ref[keys[i]])
		}
		i++
		return true
	})
	var want float64
	for _, v := range ref {
		want += v
	}
	if got := tr.Sum(); got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestKeyCloneOnInsert(t *testing.T) {
	tr := New()
	k := key(1, 2)
	tr.Set(k, 5)
	k[0] = types.NewInt(99) // caller mutates after insert
	if _, ok := tr.Get(key(1, 2)); !ok {
		t.Error("tree aliased caller's tuple")
	}
}
