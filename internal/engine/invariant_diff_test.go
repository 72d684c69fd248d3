package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/store"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// mapState snapshots every view map of a runtime engine as encoded-key →
// accumulated value, the state two engines fed one stream must agree on
// entry for entry.
func mapState(rt *runtime.Engine) map[string]float64 {
	out := map[string]float64{}
	var buf []byte
	for _, name := range rt.Program().MapOrder {
		m := rt.Map(name)
		if m == nil {
			continue
		}
		m.Scan(func(t types.Tuple, v float64) {
			buf = types.AppendKey(buf[:0], t)
			out[name+"\x00"+string(buf)] = v
		})
	}
	return out
}

// diffMapStates reports the first disagreement between two snapshots.
func diffMapStates(ref, got map[string]float64) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("entry count: ref %d, got %d", len(ref), len(got))
	}
	for k, rv := range ref {
		gv, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %q: missing", k)
		}
		if rv != gv {
			return fmt.Sprintf("key %q: ref %v, got %v", k, rv, gv)
		}
	}
	return ""
}

// diffStream builds an insert/delete stream whose float column values are
// dyadic rationals (multiples of 0.25), so every partial sum is exact in
// float64 whatever order it is added in, and agreement with an oracle can
// be required bitwise, not approximately.
func diffStream(r *rand.Rand, rels []string, n int) []stream.Event {
	var history []stream.Event
	var out []stream.Event
	for i := 0; i < n; i++ {
		if len(history) > 0 && r.Intn(3) == 0 {
			old := history[r.Intn(len(history))]
			out = append(out, stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
			continue
		}
		rel := rels[r.Intn(len(rels))]
		ev := stream.Event{Op: stream.Insert, Relation: rel, Args: types.Tuple{
			types.NewInt(int64(r.Intn(6))),
			types.NewInt(int64(r.Intn(6))),
			types.NewFloat(float64(r.Intn(32)) * 0.25),
		}}
		history = append(history, ev)
		out = append(out, ev)
	}
	return out
}

// diffQueries is the differential lineup: int-only group keys (packed
// storage), a float measure (unboxed float kernels), a division that must
// fall back to boxed evaluation, a join (loops over packed and generic
// maps), and MIN/MAX (value-keyed, sorted maps).
func diffQueries() (*schema.Catalog, []string) {
	cat := schema.NewCatalog(
		schema.NewRelation("T0", "A0:int", "B0:int", "V0:float"),
		schema.NewRelation("T1", "A1:int", "B1:int", "V1:float"),
	)
	return cat, []string{
		"select T0.A0, sum(T0.V0) from T0 group by T0.A0",
		"select T0.A0, T0.B0, count(*) from T0 group by T0.A0, T0.B0",
		"select T0.A0, sum(T0.B0 / 2) from T0 group by T0.A0", // int division: boxed fallback
		"select sum(T0.V0 * T1.V1) from T0, T1 where T0.B0 = T1.B1",
		"select T0.A0, sum(T0.B0 * T1.A1), count(*) from T0, T1 where T0.B0 = T1.B1 and T0.A0 > 1 group by T0.A0",
		"select T0.A0, avg(T0.V0), min(T0.B0), max(T0.V0) from T0 group by T0.A0",
	}
}

// invariantRun feeds one stream to the compiled engine, the re-evaluating
// baseline and a base-table store side by side.
type invariantRun struct {
	toaster *Toaster
	naive   *Naive
	db      *store.Store
}

func newInvariantRun(t *testing.T, q *Query) *invariantRun {
	t.Helper()
	toaster, err := NewToaster(q, runtime.Options{})
	if err != nil {
		t.Fatalf("toaster: %v", err)
	}
	return &invariantRun{toaster: toaster, naive: NewNaive(q), db: store.New(q.Catalog)}
}

func (r *invariantRun) apply(t *testing.T, ev stream.Event) {
	t.Helper()
	if err := r.toaster.OnEvent(ev); err != nil {
		t.Fatalf("toaster OnEvent(%s): %v", ev, err)
	}
	if err := r.naive.OnEvent(ev); err != nil {
		t.Fatalf("naive OnEvent(%s): %v", ev, err)
	}
	var err error
	if ev.Op == stream.Insert {
		err = r.db.Insert(ev.Relation, ev.Args)
	} else {
		err = r.db.Delete(ev.Relation, ev.Args)
	}
	if err != nil {
		t.Fatalf("store %s: %v", ev, err)
	}
}

// checkMaps requires every map to equal its defining query evaluated over
// the base tables, entry for entry and bitwise.
func (r *invariantRun) checkMaps(t *testing.T) {
	t.Helper()
	rt := r.toaster.Runtime()
	for _, name := range rt.Program().MapOrder {
		def := rt.Program().Maps[name].Definition
		want, err := algebra.Eval(r.db, def.Body, def.GroupVars, algebra.Env{})
		if err != nil {
			t.Fatalf("map %s: oracle: %v", name, err)
		}
		got := map[types.Key]float64{}
		rt.Map(name).Scan(func(tp types.Tuple, v float64) { got[types.EncodeKey(tp)] = v })
		if len(got) != len(want) {
			t.Fatalf("map %s (%s): %d entries, definition %d", name, rt.Map(name).Stats().Layout, len(got), len(want))
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("map %s (%s) key %v: %v, definition %v", name, rt.Map(name).Stats().Layout, types.DecodeKey(k), gv, v)
			}
		}
	}
}

// checkResults requires the compiled engine's results to equal the
// re-evaluating baseline's.
func (r *invariantRun) checkResults(t *testing.T) {
	t.Helper()
	ref, err := r.naive.Results()
	if err != nil {
		t.Fatalf("naive results: %v", err)
	}
	got, err := r.toaster.Results()
	if err != nil {
		t.Fatalf("toaster results: %v", err)
	}
	if !ref.Equal(got) {
		t.Fatalf("results diverge from re-evaluation\nnaive:\n%s\ntoaster:\n%s", ref, got)
	}
}

// TestMapInvariantsDifferential pins the compiled engine — packed and
// generic layouts, unboxed kernels and their boxed fallbacks — to the
// algebra: for every query in the lineup and a set of random streams,
// every map must equal its definition evaluated over the base tables
// after every event, bitwise, and the results must equal the re-evaluating
// baseline's.
func TestMapInvariantsDifferential(t *testing.T) {
	cat, queries := diffQueries()
	rels := []string{"T0", "T1"}
	for qi, src := range queries {
		t.Run(fmt.Sprintf("query%d", qi), func(t *testing.T) {
			q, err := Prepare(src, cat)
			if err != nil {
				t.Fatalf("prepare %q: %v", src, err)
			}
			for trial := 0; trial < 4; trial++ {
				r := rand.New(rand.NewSource(int64(7000 + 100*qi + trial)))
				run := newInvariantRun(t, q)
				for _, ev := range diffStream(r, rels, 250) {
					run.apply(t, ev)
					run.checkMaps(t)
				}
				run.checkResults(t)
			}
		})
	}
}

// FuzzMapInvariants drives fuzzer-chosen insert/delete/update streams
// through the compiled engine and requires every map to equal its
// definition over the base tables, and the results to equal the
// re-evaluating baseline's. Each byte triple encodes one operation:
// (op/relation selector, key byte, value byte); deletes replay a prior
// insert so multiplicities go negative-and-back the same way real
// retraction streams do.
func FuzzMapInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 128, 9, 9})
	f.Add([]byte{7, 200, 13, 7, 200, 13, 135, 0, 0, 12, 3, 250})
	f.Add([]byte{})

	cat, queries := diffQueries()
	prepared := make([]*Query, len(queries))
	for i, src := range queries {
		q, err := Prepare(src, cat)
		if err != nil {
			f.Fatalf("prepare %q: %v", src, err)
		}
		prepared[i] = q
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		run := newInvariantRun(t, prepared[int(data[0])%len(prepared)])
		var history []stream.Event
		for i := 1; i+2 < len(data); i += 3 {
			sel, kb, vb := data[i], data[i+1], data[i+2]
			var ev stream.Event
			if sel >= 128 && len(history) > 0 {
				old := history[int(kb)%len(history)]
				ev = stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args}
			} else {
				rel := "T0"
				if sel%2 == 1 {
					rel = "T1"
				}
				ev = stream.Event{Op: stream.Insert, Relation: rel, Args: types.Tuple{
					types.NewInt(int64(kb % 8)),
					types.NewInt(int64(kb / 8 % 8)),
					types.NewFloat(float64(vb) * 0.25),
				}}
				history = append(history, ev)
			}
			run.apply(t, ev)
		}
		run.checkMaps(t)
		run.checkResults(t)
	})
}
