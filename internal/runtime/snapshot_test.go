package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// mapState flattens one map to a comparable form.
func mapState(m *Map) map[types.Key]float64 {
	out := map[types.Key]float64{}
	m.Scan(func(tp types.Tuple, v float64) { out[types.EncodeKey(tp)] = v })
	return out
}

func engineState(e *Engine) map[string]map[types.Key]float64 {
	out := map[string]map[types.Key]float64{}
	for _, name := range e.prog.MapOrder {
		out[name] = mapState(e.maps[name])
	}
	return out
}

func equalState(a, b map[string]map[types.Key]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, am := range a {
		bm := b[name]
		if len(am) != len(bm) {
			return false
		}
		for k, v := range am {
			if bv, ok := bm[k]; !ok || bv != v {
				return false
			}
		}
	}
	return true
}

// TestSnapshotV2PackedRoundTrip pins the DBT2 format against the typed
// physical layer: one- and two-column int group keys land in the packed
// storeI1/storeI2 layouts, and their state must round-trip exactly.
func TestSnapshotV2PackedRoundTrip(t *testing.T) {
	cat := rstCatalog()
	for _, tc := range []struct {
		src  string
		kind storeKind
	}{
		{"select B, sum(A) from R group by B", storeI1},
		{"select A, B, sum(A*B) from R group by A, B", storeI2},
	} {
		c := compileSQL(t, cat, tc.src)
		eng, err := NewEngine(c.Program, Options{})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, eng, nil, []evt{
			{"R", true, []int64{1, 10}}, {"R", true, []int64{2, 10}},
			{"R", true, []int64{3, 20}}, {"R", false, []int64{1, 10}},
		})
		packed := false
		for _, name := range c.Program.MapOrder {
			if eng.maps[name].kind == tc.kind {
				packed = true
			}
		}
		if !packed {
			t.Fatalf("%q: no map uses the expected packed layout", tc.src)
		}

		var buf bytes.Buffer
		if err := eng.SnapshotAt(&buf, 77); err != nil {
			t.Fatal(err)
		}
		if got := string(buf.Bytes()[:4]); got != snapshotMagic {
			t.Fatalf("snapshot magic %q, want %q", got, snapshotMagic)
		}

		eng2, err := NewEngine(c.Program, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wm, err := eng2.RestoreMeta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q: RestoreMeta: %v", tc.src, err)
		}
		if wm != 77 {
			t.Fatalf("watermark = %d, want 77", wm)
		}
		if !equalState(engineState(eng), engineState(eng2)) {
			t.Fatalf("%q: restored state differs", tc.src)
		}
		// Determinism: a re-snapshot of the restored engine is bitwise
		// identical to the original (entries are key-sorted on write).
		var buf2 bytes.Buffer
		if err := eng2.SnapshotAt(&buf2, 77); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%q: snapshot not deterministic across restore", tc.src)
		}
	}
}

// TestSnapshotV1Rejected: the "DBT1" format (the DBT2 body without the
// watermark) was never deployed and is no longer read. A DBT1 blob is
// refused as a bad magic and leaves the engine untouched.
func TestSnapshotV1Rejected(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select B, sum(A) from R group by B")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng, nil, []evt{{"R", true, []int64{4, 2}}, {"R", true, []int64{6, 2}}})

	var v2 bytes.Buffer
	if err := eng.SnapshotAt(&v2, 123); err != nil {
		t.Fatal(err)
	}
	// DBT1 = "DBT1" magic, then the DBT2 body minus the 8-byte watermark.
	v1 := append([]byte("DBT1"), v2.Bytes()[4+8:]...)

	eng2, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng2, nil, []evt{{"R", true, []int64{1, 3}}})
	before := engineState(eng2)
	_, err = eng2.RestoreMeta(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("DBT1 restore: err = %v, want a bad snapshot magic error", err)
	}
	if !equalState(before, engineState(eng2)) {
		t.Fatal("refused DBT1 restore mutated engine state")
	}
}

// buildSnapshot hand-assembles a DBT2 blob for one map.
func buildSnapshot(mapName string, keys [][]byte, vals []float64) []byte {
	var b []byte
	b = append(b, snapshotMagic...)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(mapName)))
	b = append(b, mapName...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
	for i, k := range keys {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[i]))
	}
	return b
}

// TestRestoreCanonicalizesFloatKeys: crafted snapshot bytes carrying NaN
// and -0.0 float keys — encodings the engine itself never emits — decode
// through the value constructors, which canonicalize (NaN becomes NULL,
// -0.0 becomes +0.0) instead of smuggling non-canonical keys into a map.
func TestRestoreCanonicalizesFloatKeys(t *testing.T) {
	// A float-keyed GROUP BY: its one-column result map takes the generic
	// layout, so float keys pass arity/kind validation.
	cat := schema.NewCatalog(schema.NewRelation("F", "X:float", "Y:int"))
	c := compileSQL(t, cat, "select X, sum(Y) from F group by X")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, n := range c.Program.MapOrder {
		if m := eng.maps[n]; m.decl.Arity() == 1 && m.kind == storeGeneric {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatalf("no single-column generic map in\n%s", c.Program)
	}

	floatKey := func(bits uint64) []byte {
		b := []byte{byte(types.KindFloat)}
		return binary.LittleEndian.AppendUint64(b, bits)
	}
	blob := buildSnapshot(name,
		[][]byte{
			floatKey(math.Float64bits(math.NaN())),
			floatKey(math.Float64bits(math.Copysign(0, -1))),
		},
		[]float64{1, 2})
	if err := eng.Restore(bytes.NewReader(blob)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := mapState(eng.maps[name])
	wantNull := types.EncodeKey(types.Tuple{types.Null})
	wantZero := types.EncodeKey(types.Tuple{types.NewFloat(0)})
	if got[wantNull] != 1 {
		t.Errorf("NaN key not canonicalized to NULL: state %v", got)
	}
	if got[wantZero] != 2 {
		t.Errorf("-0.0 key not canonicalized to +0.0: state %v", got)
	}
	if k := types.EncodeKey(types.Tuple{types.NewFloat(0)}); string(k)[1:] != string(floatKey(0))[1:] {
		t.Errorf("canonical zero encoding mismatch")
	}
}

// TestRestoreAtomicity: a snapshot that fails validation (unknown map,
// wrong arity, or non-int key for a packed layout) leaves the engine
// exactly as it was.
func TestRestoreAtomicity(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select B, sum(A) from R group by B")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, eng, nil, []evt{{"R", true, []int64{5, 3}}, {"R", true, []int64{2, 8}}})
	before := engineState(eng)

	intKey := func(vs ...int64) []byte {
		return types.AppendKey(nil, func() types.Tuple {
			tp := make(types.Tuple, len(vs))
			for i, v := range vs {
				tp[i] = types.NewInt(v)
			}
			return tp
		}())
	}
	strKey := types.AppendKey(nil, types.Tuple{types.NewString("x")})
	var name1 string // some single-column packed map
	for _, n := range c.Program.MapOrder {
		if eng.maps[n].kind != storeGeneric && eng.maps[n].decl.Arity() == 1 {
			name1 = n
			break
		}
	}
	if name1 == "" {
		t.Fatal("expected a packed single-column map")
	}
	cases := map[string][]byte{
		"unknown map":       buildSnapshot("no_such_map", [][]byte{intKey(1)}, []float64{1}),
		"wrong arity":       buildSnapshot(name1, [][]byte{intKey(1, 2)}, []float64{1}),
		"string in packed":  buildSnapshot(name1, [][]byte{strKey}, []float64{1}),
		"truncated trailer": buildSnapshot(name1, [][]byte{intKey(1)}, []float64{1})[:20],
	}
	for what, blob := range cases {
		if err := eng.Restore(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: Restore accepted malformed snapshot", what)
		}
		if !equalState(before, engineState(eng)) {
			t.Fatalf("%s: failed Restore mutated engine state", what)
		}
	}
}

// FuzzRestore: arbitrary bytes through Restore never panic, and a failed
// restore never perturbs engine state.
func FuzzRestore(f *testing.F) {
	cat := rstCatalog()
	c := compileSQL(f, cat, "select B, sum(A) from R group by B")
	mk := func() *Engine {
		eng, err := NewEngine(c.Program, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range []evt{{"R", true, []int64{1, 2}}, {"R", true, []int64{3, 4}}} {
			if err := eng.OnEvent(e.rel, e.insert, e.tuple()); err != nil {
				f.Fatal(err)
			}
		}
		return eng
	}
	seedEng := mk()
	var valid bytes.Buffer
	if err := seedEng.SnapshotAt(&valid, 9); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("DBT1"))
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := mk()
		before := engineState(eng)
		if err := eng.Restore(bytes.NewReader(data)); err != nil {
			if !equalState(before, engineState(eng)) {
				t.Fatal("failed Restore mutated engine state")
			}
		}
	})
}
