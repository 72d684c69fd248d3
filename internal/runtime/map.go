// Package runtime executes compiled trigger programs over in-memory view
// maps. Maps are hash tables from key tuples to float64 aggregate values,
// with two optional accelerators: slice indexes (secondary indexes over a
// subset of key positions, backing the compiler's foreach loops) and an
// ordered index (backing MIN/MAX and threshold range reads).
//
// Every map keeps its entries exactly once, in a dense slot array, and
// reaches them through one or more access paths: the primary index (all
// key positions, unique), the slice indexes (a subset of positions, each a
// doubly-linked chain of slots per distinct bound sub-key) and, for sorted
// maps, the ordered index (slot numbers in key order, in blocked leaves).
// An access path holds slot references only — no keys and no values — so
// updating an existing entry touches no access path, inserting a new key
// writes one small head table per slice index (and one leaf of the ordered
// index), and deleting unlinks in O(1) (and from one leaf).
//
// Keys come in two physical forms selected from the program's static type
// annotations (ir.InferTypes). All-int key tuples of arity 1 to 4 pack
// into native words beside the value — no types.Value boxing, no kind
// dispatch. Everything else (string or float keys, arity ≥ 5, untyped
// programs) uses the generic form: boxed values in a flat side array. Both
// forms share every line of table, chain, order and slot management.
//
// Programs run as pre-compiled closures — the Go analogue of the paper's
// generated C++. Engines are single-goroutine: one update stream drives
// one engine, per the paper's execution model.
package runtime

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"dbtoaster/internal/ir"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/types"
)

// storeKind selects a map's key form: the packed-int key arity (storeI1 to
// storeI4), or storeGeneric for boxed keys of any arity.
type storeKind uint8

const (
	storeGeneric storeKind = iota
	storeI1
	storeI2
	storeI3
	storeI4
)

func (k storeKind) String() string {
	if k == storeGeneric {
		return "generic"
	}
	return fmt.Sprintf("int%d", k)
}

// key is the probe of one map access, in whichever form the map stores:
// ints for packed layouts, vals (full key width) for the generic one. An
// access through a slice index fills only the index's bound positions.
type key struct {
	ints [4]uint64
	vals types.Tuple
}

// Map is one materialized view map.
type Map struct {
	decl  *ir.MapDecl
	kind  storeKind
	arity int

	// Slot s occupies words[s*stride:(s+1)*stride]: the packed key (kind
	// words, none for the generic form), the value's float bits, then one
	// next/prev link word per slice index. Stored values are never zero, so
	// a zero value word marks a free slot. The generic form keeps slot s's
	// key in vals[s*arity:(s+1)*arity].
	words  []uint64
	stride int
	zero   []uint64 // stride zero words, appended to open a slot
	vals   []types.Value
	free   []int32 // vacated slots, reused before the array grows
	n      int     // live entries

	primary index
	indexes []*index

	order *order // sorted maps only
	// probe backs the boxed accessors (Get/Add); scanBuf is the reused
	// tuple packed layouts unpack into for visit callbacks, valid only
	// inside the callback. Maps are single-goroutine, like the engines
	// that own them.
	probe   key
	scanBuf types.Tuple
	// updates counts non-zero Add calls: the per-map overhead breakdown
	// the paper's profiler displays (§4.2).
	updates uint64
	// peak tracks the high-water entry count.
	peak int
	// gauges, when non-nil, mirror entry births and deaths into the metrics
	// sink. Steady-state value updates never touch them, so the instrumented
	// hot path pays nothing once the map reaches its working set.
	gauges *metrics.MapStats
}

// index is one access path into a map's slots: a linear-probing table
// hashed on a subset of key positions. The primary index covers every
// position, so each cell is one entry; a slice index's cell is the head of
// the chain of entries sharing that bound sub-key, threaded through the
// entries' link words. Cells carry the hash beside the slot, so growing
// and deleting never dereference an entry.
type index struct {
	m         *Map
	positions []int    // hashed key positions, ascending
	link      int      // entry word holding this index's chain link; 0 for the primary
	cells     []uint64 // hash<<32 | slot+1; 0 = empty; len is a power of two
	used      int
	probe     key // Iterate's reused probe
}

const (
	minCells = 8
	// cellBytes is the resident cost of one occupied table cell at the mean
	// load factor between two doublings (8 B / 0.36).
	cellBytes = 22
)

// Per-process hash seeds (strings, words): table layout is not observable
// — scans walk the slot array and chains are in insertion order — so
// seeding costs no determinism and keeps probe runs unpredictable to
// whoever chooses the keys.
var (
	hashSeed = maphash.MakeSeed()
	intSeed  = rand.Uint64()
)

// NewMap creates an empty generic-layout map for the declaration, ordered
// when the compiler requested a sorted map. Engines call
// newMapWithKind to select a packed layout from the program's type
// annotations.
func NewMap(decl *ir.MapDecl) *Map {
	return newMapWithKind(decl, storeGeneric)
}

func newMapWithKind(decl *ir.MapDecl, kind storeKind) *Map {
	m := &Map{decl: decl, kind: kind, arity: len(decl.Keys)}
	m.setStride(int(kind) + 1)
	all := make([]int, m.arity)
	for i := range all {
		all[i] = i
	}
	m.primary = *m.newIndex(all, 0)
	m.probe.vals = make(types.Tuple, m.arity)
	m.scanBuf = make(types.Tuple, m.arity)
	if decl.Sorted {
		m.order = &order{m: m}
	}
	return m
}

func (m *Map) newIndex(positions []int, link int) *index {
	ix := &index{m: m, positions: positions, link: link, cells: make([]uint64, minCells)}
	ix.probe.vals = make(types.Tuple, m.arity)
	return ix
}

func (m *Map) setStride(n int) {
	m.stride = n
	m.zero = make([]uint64, n)
}

// Decl returns the map's declaration.
func (m *Map) Decl() *ir.MapDecl { return m.decl }

// Name returns the map's name.
func (m *Map) Name() string { return m.decl.Name }

// Len returns the number of non-zero entries.
func (m *Map) Len() int { return m.n }

// entryBytes is the resident cost of one live entry: its slot words (key,
// value, 8 B of links per slice index), its primary-table cell, for the
// generic form its boxed key values, and for a sorted map its share of the
// ordered index.
func (m *Map) entryBytes() uint64 {
	b := uint64(m.stride)*8 + cellBytes
	if m.kind == storeGeneric {
		b += uint64(m.arity) * 40
	}
	if m.order != nil {
		b += orderBytes
	}
	return b
}

// ApproxBytes estimates the map's resident size from its layout: live
// entries at entryBytes each plus one head-table cell per distinct bound
// sub-key of every slice index. It depends only on the live state — not on
// slot or table capacity history — so recovery reproduces it, and it is
// allocation-free, for per-event quota checks.
func (m *Map) ApproxBytes() uint64 {
	b := uint64(m.n) * m.entryBytes()
	for _, ix := range m.indexes {
		b += uint64(ix.used) * cellBytes
	}
	return b
}

// packInt converts one tuple position of a packed map to its stored form.
// Packed layouts exist only for maps whose every access site is statically
// int; a non-int value here means the caller bypassed the type system.
func (m *Map) packInt(v types.Value) uint64 {
	if v.Kind() != types.KindInt {
		panic(fmt.Sprintf("runtime: typed map %s accessed with %s key %v", m.Name(), v.Kind(), v))
	}
	return uint64(v.Int())
}

// fill loads boxed values into the given positions of a probe.
func (m *Map) fill(k *key, pos []int, vals types.Tuple) {
	if m.kind != storeGeneric {
		for i, p := range pos {
			k.ints[p] = m.packInt(vals[i])
		}
		return
	}
	for i, p := range pos {
		k.vals[p] = vals[i]
	}
}

// mix folds one word into a running hash: a 64×64→128-bit multiply with
// its halves xored, so every input bit — float keys differ only in their
// top bits, ids often only in their low ones — reaches the low bits a
// small table indexes by.
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// hashInts hashes the probe's packed ints at the given positions.
func hashInts(pos []int, k *key) uint32 {
	h := intSeed
	for _, p := range pos {
		h = mix(h, k.ints[p])
	}
	return uint32(h)
}

// hashVals hashes the probe's boxed values at the given positions, by kind
// and payload, matching the strict equality matches applies.
func hashVals(pos []int, k *key) uint32 {
	h := intSeed
	for _, p := range pos {
		switch v := k.vals[p]; v.Kind() {
		case types.KindString:
			h = mix(h, maphash.String(hashSeed, v.Str()))
		case types.KindFloat:
			h = mix(h, math.Float64bits(v.Float())+uint64(types.KindFloat))
		default:
			h = mix(h, uint64(v.Int())+uint64(v.Kind()))
		}
	}
	return uint32(h)
}

// matches reports whether slot s's key equals the probe at the given
// positions (boxed values: same kind and payload).
func (m *Map) matches(s int32, pos []int, k *key) bool {
	if m.kind != storeGeneric {
		e := m.words[int(s)*m.stride:]
		for _, p := range pos {
			if e[p] != k.ints[p] {
				return false
			}
		}
		return true
	}
	e := m.vals[int(s)*m.arity:]
	for _, p := range pos {
		if e[p] != k.vals[p] {
			return false
		}
	}
	return true
}

// slotKey loads slot s's key into a probe; the generic form aliases the
// stored values, so k must not be filled afterwards.
func (m *Map) slotKey(s int32, k *key) {
	if m.kind != storeGeneric {
		copy(k.ints[:], m.words[int(s)*m.stride:][:m.kind])
		return
	}
	k.vals = m.vals[int(s)*m.arity:][:m.arity]
}

// value returns slot s's value word.
func (m *Map) value(s int32) *uint64 { return &m.words[int(s)*m.stride+int(m.kind)] }

func cell(h uint32, s int32) uint64 { return uint64(h)<<32 | uint64(s+1) }

// find probes for the cell whose slot matches k on the index's positions,
// returning the slot, the cell's position and k's hash — or slot -1 and
// the position of the empty cell that ended the probe (where put would
// place k).
func (ix *index) find(k *key) (s int32, at, h uint32) {
	if ix.m.kind != storeGeneric {
		h = hashInts(ix.positions, k)
	} else {
		h = hashVals(ix.positions, k)
	}
	mask := uint32(len(ix.cells) - 1)
	for at = h & mask; ; at = (at + 1) & mask {
		c := ix.cells[at]
		if c == 0 {
			return -1, at, h
		}
		if uint32(c>>32) == h {
			if s = int32(uint32(c)) - 1; ix.m.matches(s, ix.positions, k) {
				return s, at, h
			}
		}
	}
}

// put fills the empty cell find reported, doubling the table at 1/2 load:
// linear probing degrades sharply past that for absent keys (a probe for a
// missing key runs to the next empty cell), and lookups of keys a
// selective map does not hold are common.
func (ix *index) put(at, h uint32, s int32) {
	ix.cells[at] = cell(h, s)
	ix.used++
	if ix.used*2 <= len(ix.cells) {
		return
	}
	old := ix.cells
	ix.cells = make([]uint64, 2*len(old))
	mask := uint32(len(ix.cells) - 1)
	for _, c := range old {
		if c != 0 {
			i := uint32(c>>32) & mask
			for ix.cells[i] != 0 {
				i = (i + 1) & mask
			}
			ix.cells[i] = c
		}
	}
}

// del empties the cell at position at, shifting later cells of the same
// probe run back so no tombstone is needed.
func (ix *index) del(at uint32) {
	mask := uint32(len(ix.cells) - 1)
	i := at
	for j := (i + 1) & mask; ix.cells[j] != 0; j = (j + 1) & mask {
		// Cell j may fill the hole at i unless its home position lies
		// cyclically inside (i, j].
		if home := uint32(ix.cells[j] >> 32); (j-home)&mask >= (j-i)&mask {
			ix.cells[i] = ix.cells[j]
			i = j
		}
	}
	ix.cells[i] = 0
	ix.used--
}

// first returns the first slot matching k on the index's positions, or -1.
func (ix *index) first(k *key) int32 {
	s, _, _ := ix.find(k)
	return s
}

// next returns the slot after s in its chain, or -1. Read it before
// running code that may delete s.
func (ix *index) next(s int32) int32 {
	if ix.link == 0 {
		return -1
	}
	return int32(uint32(ix.m.words[int(s)*ix.m.stride+ix.link])) - 1
}

// linkIn pushes slot s (whose key is k) onto the head of its chain.
func (ix *index) linkIn(s int32, k *key) {
	m := ix.m
	head, at, h := ix.find(k)
	if head < 0 {
		m.words[int(s)*m.stride+ix.link] = 0
		ix.put(at, h, s)
		return
	}
	m.words[int(s)*m.stride+ix.link] = uint64(head + 1)      // next = head, no prev
	m.words[int(head)*m.stride+ix.link] |= uint64(s+1) << 32 // head.prev = s
	ix.cells[at] = cell(h, s)
}

// unlink removes slot s from its chain, repointing or dropping the head
// cell when s led the chain.
func (ix *index) unlink(s int32) {
	m := ix.m
	l := m.words[int(s)*m.stride+ix.link]
	next, prev := l&0xFFFFFFFF, l>>32 // slot+1 each
	if next != 0 {
		w := &m.words[int(next-1)*m.stride+ix.link]
		*w = *w&0xFFFFFFFF | prev<<32
	}
	if prev != 0 {
		w := &m.words[int(prev-1)*m.stride+ix.link]
		*w = *w&^0xFFFFFFFF | next
		return
	}
	var k key
	m.slotKey(s, &k)
	_, at, h := ix.find(&k)
	if next != 0 {
		ix.cells[at] = uint64(h)<<32 | next
	} else {
		ix.del(at)
	}
}

// get returns the value at the probe's key (0 when absent).
func (m *Map) get(k *key) float64 {
	s, _, _ := m.primary.find(k)
	if s < 0 {
		return 0
	}
	return math.Float64frombits(*m.value(s))
}

// add adds delta to the entry at the probe's key; exact-zero entries are
// removed (0 and absent are semantically identical for ring aggregates,
// and removal keeps loop enumerations tight under deletions). Allocation-
// free except when the slot array or a table grows.
func (m *Map) add(k *key, delta float64) {
	if delta == 0 {
		return
	}
	m.updates++
	s, at, h := m.primary.find(k)
	if s < 0 {
		m.insert(k, h, at, delta)
		return
	}
	w := m.value(s)
	if v := math.Float64frombits(*w) + delta; v != 0 {
		*w = math.Float64bits(v)
		return
	}
	for _, ix := range m.indexes {
		ix.unlink(s)
	}
	if m.order != nil {
		m.order.remove(s)
	}
	m.primary.del(at)
	*w = 0
	if m.kind == storeGeneric {
		clear(m.vals[int(s)*m.arity:][:m.arity]) // release string payloads
	}
	m.free = append(m.free, s)
	m.n--
	if m.gauges != nil {
		m.gauges.Entries.Dec()
	}
}

// insert stores a new entry in a free slot and links it into every index.
func (m *Map) insert(k *key, h, at uint32, v float64) {
	var s int32
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		if len(m.words)/m.stride == math.MaxInt32 {
			panic(fmt.Sprintf("runtime: map %s is full", m.Name()))
		}
		s = int32(len(m.words) / m.stride)
		m.words = append(m.words, m.zero...)
		if m.kind == storeGeneric {
			m.vals = append(m.vals, k.vals...)
		}
	}
	if m.kind != storeGeneric {
		copy(m.words[int(s)*m.stride:], k.ints[:m.kind])
	} else {
		copy(m.vals[int(s)*m.arity:], k.vals)
	}
	*m.value(s) = math.Float64bits(v)
	m.primary.put(at, h, s)
	for _, ix := range m.indexes {
		ix.linkIn(s, k)
	}
	if m.order != nil {
		m.order.insert(s)
	}
	m.n++
	if m.n > m.peak {
		m.peak = m.n
	}
	if m.gauges != nil {
		m.gauges.Peak.MaxTo(m.gauges.Entries.Inc())
	}
}

// Get returns the value at key t (0 when absent). Allocation-free.
func (m *Map) Get(t types.Tuple) float64 {
	m.fill(&m.probe, m.primary.positions, t)
	return m.get(&m.probe)
}

// Add adds delta to the entry at key t, removing it at exact zero. The map
// copies what it keeps, so the caller may reuse t.
func (m *Map) Add(t types.Tuple, delta float64) {
	m.fill(&m.probe, m.primary.positions, t)
	m.add(&m.probe, delta)
}

// tuple returns slot s's key as a tuple valid only until the next map
// operation: packed layouts unpack into scanBuf, the generic form aliases
// its stored values.
func (m *Map) tuple(s int32) types.Tuple {
	if m.kind == storeGeneric {
		return m.vals[int(s)*m.arity:][:m.arity:m.arity]
	}
	for i, w := range m.words[int(s)*m.stride:][:m.kind] {
		m.scanBuf[i] = types.NewInt(int64(w))
	}
	return m.scanBuf
}

// Scan visits every entry in slot order — insertion order, with vacated
// slots reused — so two maps fed the same operations scan identically.
// The tuple passed to f is valid only during the callback; Clone it to
// retain it.
func (m *Map) Scan(f func(types.Tuple, float64)) {
	for s := int32(0); int(s)*m.stride < len(m.words); s++ {
		if v := *m.value(s); v != 0 {
			f(m.tuple(s), math.Float64frombits(v))
		}
	}
}

// ScanSorted visits entries in ascending key order (see cmpSlots). Sorted
// maps walk their ordered index (O(n)); others sort their live slots
// (O(n log n); intended for result formatting, not hot paths). Like Scan,
// the tuple is only valid during the callback.
func (m *Map) ScanSorted(f func(types.Tuple, float64)) {
	visit := func(s int32) { f(m.tuple(s), math.Float64frombits(*m.value(s))) }
	if m.order != nil {
		m.order.walk(0, 0, len(m.order.leaves), 0, visit)
		return
	}
	live := make([]int32, 0, m.n)
	for s := int32(0); int(s)*m.stride < len(m.words); s++ {
		if *m.value(s) != 0 {
			live = append(live, s)
		}
	}
	slices.SortFunc(live, m.cmpSlots)
	for _, s := range live {
		visit(s)
	}
}

// EnsureSlice returns the access path over the given bound positions
// (ascending), registering a slice index if none exists; binding every
// position is the primary index. Indexes are normally registered at engine
// construction before data arrives, but an engine adopting a populated
// shared map (or taking over a caught-up one) may need an index the
// previous owner never used: existing entries are then re-laid with room
// for the new link word and threaded onto the new chains.
func (m *Map) EnsureSlice(positions []int) *index {
	if len(positions) == m.arity {
		return &m.primary
	}
	for _, ix := range m.indexes {
		if slices.Equal(ix.positions, positions) {
			return ix
		}
	}
	for i, p := range positions {
		if p < 0 || p >= m.arity || (i > 0 && p <= positions[i-1]) {
			panic(fmt.Sprintf("runtime: invalid slice positions %v for %d-key map %s", positions, m.arity, m.Name()))
		}
	}
	ix := m.newIndex(slices.Clone(positions), m.stride)
	old, oldStride := m.words, m.stride
	m.setStride(oldStride + 1)
	m.words = make([]uint64, len(old)/oldStride*m.stride)
	for from, to := 0, 0; from < len(old); from, to = from+oldStride, to+m.stride {
		copy(m.words[to:], old[from:from+oldStride])
	}
	m.indexes = append(m.indexes, ix)
	if m.gauges != nil {
		m.gauges.EntryBytes.Set(int64(m.entryBytes()))
	}
	var k key
	for s := int32(0); int(s)*m.stride < len(m.words); s++ {
		if *m.value(s) != 0 {
			m.slotKey(s, &k)
			ix.linkIn(s, &k)
		}
	}
	return ix
}

// Iterate visits entries whose bound positions equal boundVals (one value
// per index position, in order). Like Scan, the tuple is valid only during
// the callback.
func (ix *index) Iterate(boundVals types.Tuple, f func(types.Tuple, float64)) {
	m := ix.m
	m.fill(&ix.probe, ix.positions, boundVals)
	for s := ix.first(&ix.probe); s >= 0; {
		next := ix.next(s)
		f(m.tuple(s), math.Float64frombits(*m.value(s)))
		s = next
	}
}

// MemStats summarizes a map's footprint and activity for the profiler:
// the per-map overhead breakdown the paper's demo displays.
type MemStats struct {
	Name    string
	Entries int
	Peak    int
	Updates uint64
	Slices  int
	Sorted  bool
	// Layout is the physical storage layout ("int1".."int4", "generic").
	Layout string
	// Shared marks a map adopted from another engine: its bytes are owned
	// (and reported) by that engine, so footprint sums must skip it.
	Shared bool
}

// Stats reports the map's footprint and update count.
func (m *Map) Stats() MemStats {
	return MemStats{
		Name:    m.Name(),
		Entries: m.Len(),
		Peak:    m.peak,
		Updates: m.updates,
		Slices:  len(m.indexes),
		Sorted:  m.order != nil,
		Layout:  m.kind.String(),
	}
}
