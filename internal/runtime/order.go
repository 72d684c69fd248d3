package runtime

import (
	"cmp"
	"math"
	"slices"

	"dbtoaster/internal/types"
)

// order is a sorted map's ordered access path: its live slots in ascending
// key order, held in a list of leaves of at most leafCap slots each. Like
// the hash access paths it stores no keys and no values, only slot
// numbers, so only a key's birth or death touches it — a value update
// writes the slot's value word and nothing else — and every answer it
// gives (scans, extrema, range sums) is a function of the live entries
// alone, not of the order they arrived in.
//
// Leaves bound the cost of a birth or death to one leaf's words: a leaf
// that fills splits in two, and a death that leaves two neighbours
// together at most half a leaf merges them, so leaves average at least a
// quarter full and the leaf list stays short even at millions of keys.
type order struct {
	m      *Map
	leaves []*leaf // non-empty, ascending; every key of leaves[j] sorts before leaves[j+1]'s
	spare  []*leaf // emptied or merged leaves, reused by splits
}

const leafCap = 256

type leaf struct {
	n     int
	slots [leafCap]int32
}

func (l *leaf) live() []int32 { return l.slots[:l.n] }

// orderBytes is the index's resident cost per live entry: a 4 B slot
// number in a half-full leaf, the fill a split leaves.
const orderBytes = 8

// cmpSlots orders two slots by key: packed layouts compare key words as
// int64; the generic form compares boxed keys with types.Tuple.Compare and
// breaks the ties it leaves between distinct stored keys (an int and a
// float of equal value) by kind, so the order is total over live keys and
// refines Compare on every key prefix — the bounds readers pass.
func (m *Map) cmpSlots(a, b int32) int {
	if m.kind != storeGeneric {
		ka, kb := m.words[int(a)*m.stride:][:m.kind], m.words[int(b)*m.stride:][:m.kind]
		for i, w := range ka {
			if c := cmp.Compare(int64(w), int64(kb[i])); c != 0 {
				return c
			}
		}
		return 0
	}
	ka, kb := m.vals[int(a)*m.arity:][:m.arity], m.vals[int(b)*m.arity:][:m.arity]
	if c := types.Tuple(ka).Compare(kb); c != 0 {
		return c
	}
	for i, v := range ka {
		if c := cmp.Compare(v.Kind(), kb[i].Kind()); c != 0 {
			return c
		}
	}
	return 0
}

// cmpBound compares slot s's key with a bound as types.Tuple.Compare does:
// a bound shorter than the key is a prefix, which every key extending it
// sorts after, and types.PosInf tops every stored value.
func (m *Map) cmpBound(s int32, bound types.Tuple) int {
	n := min(m.arity, len(bound))
	for i := 0; i < n; i++ {
		var v types.Value
		if m.kind != storeGeneric {
			v = types.NewInt(int64(m.words[int(s)*m.stride+i]))
		} else {
			v = m.vals[int(s)*m.arity+i]
		}
		if c := v.Compare(bound[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(m.arity, len(bound))
}

// seek returns the position of the first slot for which after holds —
// after must be false then true along the order — as a leaf number and an
// offset in it; (len(leaves), 0) when it holds nowhere.
func (o *order) seek(after func(s int32) bool) (j, i int) {
	lo, hi := 0, len(o.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l := o.leaves[mid]; after(l.slots[l.n-1]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(o.leaves) {
		return lo, 0
	}
	live := o.leaves[lo].live()
	i, hi = 0, len(live)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if after(live[mid]) {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	return lo, i
}

// find returns the position slot s occupies, or where it belongs.
func (o *order) find(s int32) (j, i int) {
	return o.seek(func(t int32) bool { return o.m.cmpSlots(t, s) >= 0 })
}

// insert links a newborn slot (its key already stored) into the order.
func (o *order) insert(s int32) {
	j, i := o.find(s)
	if j == len(o.leaves) { // past every key: append to the last leaf
		if j == 0 {
			o.leaves = append(o.leaves, o.newLeaf())
		} else {
			j--
		}
		i = o.leaves[j].n
	}
	l := o.leaves[j]
	if l.n == leafCap {
		r := o.newLeaf()
		r.n = copy(r.slots[:], l.slots[leafCap/2:])
		l.n = leafCap / 2
		o.leaves = slices.Insert(o.leaves, j+1, r)
		if i > l.n {
			l, i = r, i-l.n
		}
	}
	copy(l.slots[i+1:l.n+1], l.slots[i:l.n])
	l.slots[i] = s
	l.n++
}

// remove unlinks a dying slot (its key still stored) from the order,
// merging its leaf with a neighbour when the two fit in half a leaf.
func (o *order) remove(s int32) {
	j, i := o.find(s)
	l := o.leaves[j]
	copy(l.slots[i:], l.slots[i+1:l.n])
	l.n--
	switch {
	case l.n == 0:
		o.drop(j)
	case j+1 < len(o.leaves) && l.n+o.leaves[j+1].n <= leafCap/2:
		o.merge(j)
	case j > 0 && o.leaves[j-1].n+l.n <= leafCap/2:
		o.merge(j - 1)
	}
}

// merge appends leaf j+1's slots to leaf j and drops leaf j+1.
func (o *order) merge(j int) {
	l, r := o.leaves[j], o.leaves[j+1]
	l.n += copy(l.slots[l.n:], r.live())
	o.drop(j + 1)
}

func (o *order) drop(j int) {
	o.spare = append(o.spare, o.leaves[j])
	o.leaves = slices.Delete(o.leaves, j, j+1)
}

func (o *order) newLeaf() *leaf {
	if n := len(o.spare); n > 0 {
		l := o.spare[n-1]
		o.spare = o.spare[:n-1]
		l.n = 0
		return l
	}
	return new(leaf)
}

// span returns the positions [from, to) of the slots inside a bounded
// range: keys above lo (strictly when loOpen) and below hi (strictly when
// hiOpen), compared as cmpBound does; a nil bound is unbounded.
func (o *order) span(lo, hi types.Tuple, loOpen, hiOpen bool) (fj, fi, tj, ti int) {
	m := o.m
	fj, fi = o.seek(func(s int32) bool {
		if lo == nil {
			return true
		}
		c := m.cmpBound(s, lo)
		return c > 0 || c == 0 && !loOpen
	})
	tj, ti = o.seek(func(s int32) bool {
		if hi == nil {
			return false
		}
		c := m.cmpBound(s, hi)
		return c > 0 || c == 0 && hiOpen
	})
	return
}

// walk visits the slots at positions [from, to) in order.
func (o *order) walk(fj, fi, tj, ti int, f func(s int32)) {
	for j := fj; j < len(o.leaves) && (j < tj || j == tj && fi < ti); j, fi = j+1, 0 {
		live := o.leaves[j].live()
		if j == tj {
			live = live[:ti]
		}
		for _, s := range live[fi:] {
			f(s)
		}
	}
}

// First returns the smallest entry inside a bounded range (see RangeSum).
// The key is valid only until the next map operation.
func (m *Map) First(lo, hi types.Tuple, loOpen, hiOpen bool) (types.Tuple, float64, bool) {
	fj, fi, tj, ti := m.order.span(lo, hi, loOpen, hiOpen)
	if fj > tj || fj == tj && fi >= ti {
		return nil, 0, false
	}
	return m.entry(m.order.leaves[fj].slots[fi])
}

// Last returns the largest entry inside a bounded range (see RangeSum).
// The key is valid only until the next map operation.
func (m *Map) Last(lo, hi types.Tuple, loOpen, hiOpen bool) (types.Tuple, float64, bool) {
	fj, fi, tj, ti := m.order.span(lo, hi, loOpen, hiOpen)
	if fj > tj || fj == tj && fi >= ti {
		return nil, 0, false
	}
	if ti == 0 {
		tj--
		ti = m.order.leaves[tj].n
	}
	return m.entry(m.order.leaves[tj].slots[ti-1])
}

// RangeSum adds, in ascending key order, the values of the entries whose
// keys lie above lo (strictly when loOpen) and below hi (strictly when
// hiOpen). Bounds compare as types.Tuple.Compare: a bound shorter than the
// keys is a prefix (so a group's prefix is a closed lower bound for its
// entries, and the prefix extended by types.PosInf an upper one), and a
// nil bound is unbounded. The sum is O(log n + k) for k entries in range
// and depends only on the live entries. The map must be sorted.
func (m *Map) RangeSum(lo, hi types.Tuple, loOpen, hiOpen bool) float64 {
	fj, fi, tj, ti := m.order.span(lo, hi, loOpen, hiOpen)
	var sum float64
	m.order.walk(fj, fi, tj, ti, func(s int32) { sum += math.Float64frombits(*m.value(s)) })
	return sum
}

func (m *Map) entry(s int32) (types.Tuple, float64, bool) {
	return m.tuple(s), math.Float64frombits(*m.value(s)), true
}
