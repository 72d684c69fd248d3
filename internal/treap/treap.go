// Package treap implements an order-statistic treap keyed by value tuples
// with augmented subtree sums. The order book's hand-written correlated-VWAP
// processor keeps its price levels in two of them: a suffix-threshold
// descent over volume and a range sum over turnover, both O(log n). (The
// runtime's sorted view maps keep their order in the map's own ordered
// index instead.)
package treap

import (
	"dbtoaster/internal/types"
)

type node struct {
	key  types.Tuple
	val  float64
	sum  float64 // subtree value sum
	cnt  int     // subtree size
	prio uint64
	l, r *node
}

func (n *node) update() {
	n.sum = n.val
	n.cnt = 1
	if n.l != nil {
		n.sum += n.l.sum
		n.cnt += n.l.cnt
	}
	if n.r != nil {
		n.sum += n.r.sum
		n.cnt += n.r.cnt
	}
}

// Tree is an ordered map from tuples to float64 values with O(log n)
// insert, delete, lookup, and range-sum. The zero value is not ready;
// use New.
type Tree struct {
	root *node
	rng  uint64
}

// New creates an empty tree. Priorities come from a deterministic
// per-tree xorshift stream, keeping runs reproducible.
func New() *Tree { return &Tree{rng: 0x9E3779B97F4A7C15} }

func (t *Tree) nextPrio() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Len returns the number of keys.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.cnt
}

// Get returns the value stored at key (0 when absent).
func (t *Tree) Get(key types.Tuple) (float64, bool) {
	n := t.root
	for n != nil {
		switch c := key.Compare(n.key); {
		case c < 0:
			n = n.l
		case c > 0:
			n = n.r
		default:
			return n.val, true
		}
	}
	return 0, false
}

// Set stores value at key; value 0 deletes the key.
func (t *Tree) Set(key types.Tuple, value float64) {
	if value == 0 {
		t.root = remove(t.root, key)
		return
	}
	if n := find(t.root, key); n != nil {
		delta := value - n.val
		n.val = value
		addOnPath(t.root, key, delta)
		return
	}
	nn := &node{key: key.Clone(), val: value, prio: t.nextPrio()}
	nn.update()
	l, r := split(t.root, key, false)
	t.root = merge(merge(l, nn), r)
}

// Add adds delta to the value at key, inserting or deleting as needed.
func (t *Tree) Add(key types.Tuple, delta float64) {
	if delta == 0 {
		return
	}
	if n := find(t.root, key); n != nil {
		if n.val+delta == 0 {
			t.root = remove(t.root, key)
			return
		}
		n.val += delta
		addOnPath(t.root, key, delta)
		return
	}
	t.Set(key, delta)
}

func find(n *node, key types.Tuple) *node {
	for n != nil {
		switch c := key.Compare(n.key); {
		case c < 0:
			n = n.l
		case c > 0:
			n = n.r
		default:
			return n
		}
	}
	return nil
}

// addOnPath fixes the augmented sums along the search path of key.
func addOnPath(n *node, key types.Tuple, delta float64) {
	for n != nil {
		n.sum += delta
		switch c := key.Compare(n.key); {
		case c < 0:
			n = n.l
		case c > 0:
			n = n.r
		default:
			return
		}
	}
}

// split partitions n into keys < key (or <= when orEq) and the rest.
func split(n *node, key types.Tuple, orEq bool) (*node, *node) {
	if n == nil {
		return nil, nil
	}
	c := n.key.Compare(key)
	goLeft := c > 0 || (c == 0 && !orEq)
	if goLeft {
		l, r := split(n.l, key, orEq)
		n.l = r
		n.update()
		return l, n
	}
	l, r := split(n.r, key, orEq)
	n.r = l
	n.update()
	return n, r
}

func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio >= b.prio:
		a.r = merge(a.r, b)
		a.update()
		return a
	default:
		b.l = merge(a, b.l)
		b.update()
		return b
	}
}

func remove(n *node, key types.Tuple) *node {
	if n == nil {
		return nil
	}
	switch c := key.Compare(n.key); {
	case c < 0:
		n.l = remove(n.l, key)
	case c > 0:
		n.r = remove(n.r, key)
	default:
		return merge(n.l, n.r)
	}
	n.update()
	return n
}

// RangeSum returns the sum of values with lo ≤/< key ≤/< hi. Bounds may be
// shorter tuples than the stored keys (prefix bounds); nil means unbounded.
func (t *Tree) RangeSum(lo, hi types.Tuple, loOpen, hiOpen bool) float64 {
	return rangeSum(t.root, lo, hi, loOpen, hiOpen)
}

func rangeSum(n *node, lo, hi types.Tuple, loOpen, hiOpen bool) float64 {
	if n == nil {
		return 0
	}
	if !aboveLo(n.key, lo, loOpen) {
		return rangeSum(n.r, lo, hi, loOpen, hiOpen)
	}
	if !belowHi(n.key, hi, hiOpen) {
		return rangeSum(n.l, lo, hi, loOpen, hiOpen)
	}
	// n is inside: left subtree only needs the lo bound, right only hi.
	total := n.val
	total += sumAbove(n.l, lo, loOpen)
	total += sumBelow(n.r, hi, hiOpen)
	return total
}

func sumAbove(n *node, lo types.Tuple, loOpen bool) float64 {
	if n == nil {
		return 0
	}
	if lo == nil {
		return n.sum
	}
	if !aboveLo(n.key, lo, loOpen) {
		return sumAbove(n.r, lo, loOpen)
	}
	s := n.val + sumAbove(n.l, lo, loOpen)
	if n.r != nil {
		s += n.r.sum
	}
	return s
}

func sumBelow(n *node, hi types.Tuple, hiOpen bool) float64 {
	if n == nil {
		return 0
	}
	if hi == nil {
		return n.sum
	}
	if !belowHi(n.key, hi, hiOpen) {
		return sumBelow(n.l, hi, hiOpen)
	}
	s := n.val + sumBelow(n.r, hi, hiOpen)
	if n.l != nil {
		s += n.l.sum
	}
	return s
}

func aboveLo(key, lo types.Tuple, open bool) bool {
	if lo == nil {
		return true
	}
	c := key.Compare(lo)
	if open {
		return c > 0
	}
	return c >= 0
}

func belowHi(key, hi types.Tuple, open bool) bool {
	if hi == nil {
		return true
	}
	c := key.Compare(hi)
	if open {
		return c < 0
	}
	return c <= 0
}

// Walk visits all entries in key order; returning false stops the walk.
func (t *Tree) Walk(f func(types.Tuple, float64) bool) { walk(t.root, f) }

func walk(n *node, f func(types.Tuple, float64) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.l, f) && f(n.key, n.val) && walk(n.r, f)
}

// SuffixThreshold returns the smallest key whose strict-suffix sum (the
// sum of values at keys strictly greater than it) is below target. This is
// the order-statistic descent behind the correlated VWAP query: the price
// level where cumulative volume above it drops under a fraction of total.
func (t *Tree) SuffixThreshold(target float64) (types.Tuple, bool) {
	n := t.root
	acc := 0.0
	var best types.Tuple
	found := false
	for n != nil {
		rs := 0.0
		if n.r != nil {
			rs = n.r.sum
		}
		if acc+rs < target {
			// Keys > n.key sum to acc+rs < target: n qualifies; look for a
			// smaller qualifying key to the left.
			best = n.key
			found = true
			acc += rs + n.val
			n = n.l
		} else {
			n = n.r
		}
	}
	return best, found
}

// Sum returns the total of all values.
func (t *Tree) Sum() float64 {
	if t.root == nil {
		return 0
	}
	return t.root.sum
}
