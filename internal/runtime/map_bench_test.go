package runtime

import (
	"fmt"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

// benchIndexSets lists, per slice-index count, the bound-position sets a
// map of the given arity registers (single positions first, then pairs).
func benchIndexSets(arity, n int) [][]int {
	var all [][]int
	for p := 0; p < arity && arity > 1; p++ {
		all = append(all, []int{p})
	}
	if arity > 2 {
		all = append(all, []int{0, 1})
	}
	if n > len(all) {
		return nil
	}
	return all[:n]
}

// BenchmarkMapAdd measures one Map.Add on packed layouts of arity 1 to 4
// with 0, 1, 2 or 4 slice indexes, in the three regimes a trigger puts a
// map through: updating a key that exists (no index is touched), inserting
// a new key (one head-table write per index), and churn (insert one key,
// delete the oldest, so slots and chains recycle). Keys spread 64 values
// per position, so head tables stay dimension-sized as on a star schema.
func BenchmarkMapAdd(b *testing.B) {
	const resident = 100_000
	for arity := 1; arity <= 4; arity++ {
		for _, nIdx := range []int{0, 1, 2, 4} {
			sets := benchIndexSets(arity, nIdx)
			if nIdx > 0 && sets == nil {
				continue
			}
			names := []algebra.Var{"k0", "k1", "k2", "k3"}[:arity]
			decl := &ir.MapDecl{Name: "t", Keys: names,
				Definition: &algebra.AggSum{GroupVars: names, Body: algebra.One()}}
			key := make(types.Tuple, arity)
			// setKey spells the n-th distinct key: base-64 digits over the
			// positions, the remainder in the last.
			setKey := func(n int) {
				for i := 0; i < arity-1; i++ {
					key[i] = types.NewInt(int64(n % 64))
					n /= 64
				}
				key[arity-1] = types.NewInt(int64(n))
			}
			build := func() *Map {
				m := newMapWithKind(decl, storeKind(arity))
				for _, pos := range sets {
					m.EnsureSlice(pos)
				}
				for n := 0; n < resident; n++ {
					setKey(n)
					m.Add(key, 1)
				}
				return m
			}
			name := fmt.Sprintf("int%d/idx%d", arity, nIdx)
			b.Run(name+"/update", func(b *testing.B) {
				m := build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					setKey(i * 7919 % resident)
					m.Add(key, 1)
				}
			})
			b.Run(name+"/insert", func(b *testing.B) {
				m := build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					setKey(resident + i)
					m.Add(key, 1)
				}
			})
			b.Run(name+"/churn", func(b *testing.B) {
				m := build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					setKey(resident + i)
					m.Add(key, 1)
					setKey(i)
					m.Add(key, -1)
				}
			})
		}
	}
}

// BenchmarkSortedMapChurn measures a sorted map (MIN/MAX and threshold
// reads) holding exactly n live float keys under key churn: each op is one
// key death, one birth and two value updates. Keys are distinct multiples
// of 0.1 scattered over the key space, so births and deaths land anywhere
// in the order, not at its ends.
func BenchmarkSortedMapChurn(b *testing.B) {
	decl := &ir.MapDecl{Name: "t", Keys: []algebra.Var{"k0"}, Sorted: true,
		Definition: &algebra.AggSum{GroupVars: []algebra.Var{"k0"}, Body: algebra.One()}}
	key := make(types.Tuple, 1)
	// setKey spells the i-th key: a bijection of uint32, scaled by 0.1.
	setKey := func(i int) { key[0] = types.NewFloat(float64(uint32(i)*2654435761) * 0.1) }
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := NewMap(decl)
			for i := 0; i < n; i++ {
				setKey(i)
				m.Add(key, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setKey(i) // live keys are i .. i+n-1
				m.Add(key, -m.Get(key))
				setKey(i + n)
				m.Add(key, 1)
				setKey(i + 1 + i%(n-1))
				m.Add(key, 0.5)
				setKey(i + n)
				m.Add(key, 0.5)
			}
		})
	}
}
