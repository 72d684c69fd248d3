package engine

import (
	"fmt"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// allocPerEvent drives prebuilt events through a compiled engine and
// returns the average allocations per event once the engine is in steady
// state (every group already exists, no zero-crossings remove entries).
func allocPerEvent(t *testing.T, sql string, cat *schema.Catalog, warm, steady []stream.Event) float64 {
	t.Helper()
	q, err := Prepare(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewToaster(q, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range warm {
		if err := e.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, ev := range steady {
			if err := e.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	})
	return allocs / float64(len(steady))
}

// TestZeroAllocSteadyState asserts the tentpole invariant: a compiled
// trigger processing steady-state integer events — updates to existing
// groups, no entry births or deaths — performs zero heap allocations per
// event. Key encoding goes through reused scratch buffers, map probes use
// the zero-allocation m[Key(buf)] idiom, and trigger dispatch is a map
// lookup on the relation name.
func TestZeroAllocSteadyState(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("r", "a:int", "b:int"))
	const groups = 8
	var warm, steady []stream.Event
	for g := 0; g < groups; g++ {
		warm = append(warm, stream.Ins("r", types.NewInt(int64(g)), types.NewInt(int64(g+1))))
	}
	for i := 0; i < 1024; i++ {
		// Positive deltas against existing groups: values never sum to
		// zero, so no entry is ever removed.
		steady = append(steady, stream.Ins("r", types.NewInt(int64(i%groups)), types.NewInt(int64(i%7+1))))
	}
	if got := allocPerEvent(t, "select a, sum(b) from r group by a", cat, warm, steady); got != 0 {
		t.Errorf("steady-state allocs/event = %g, want 0", got)
	}
}

// TestZeroAllocSteadyStateStringKeys asserts the same invariant for
// string-keyed groups: the scratch-buffer encoding appends string bytes
// in place, so steady-state string workloads are also allocation-free.
func TestZeroAllocSteadyStateStringKeys(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("sales", "region:string", "amount:float"))
	regions := []string{"north", "south", "east", "west"}
	var warm, steady []stream.Event
	for _, r := range regions {
		warm = append(warm, stream.Ins("sales", types.NewString(r), types.NewFloat(1)))
	}
	for i := 0; i < 1024; i++ {
		steady = append(steady, stream.Ins("sales", types.NewString(regions[i%len(regions)]), types.NewFloat(float64(i%5+1))))
	}
	if got := allocPerEvent(t, "select region, sum(amount) from sales group by region", cat, warm, steady); got != 0 {
		t.Errorf("steady-state string-key allocs/event = %g, want 0", got)
	}
}

// TestSortedMapAllocBudget documents the allocation budget for maps with a
// sorted treap mirror (MIN/MAX and threshold queries): steady-state updates
// to existing treap keys currently measure 0 allocs/event, but the treap
// may rebalance or rebuild paths on other shapes, so the budget leaves 1
// alloc/event of headroom rather than freezing the exact value.
func TestSortedMapAllocBudget(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("r", "a:int", "b:int"))
	const vals = 16
	var warm, steady []stream.Event
	for v := 0; v < vals; v++ {
		warm = append(warm, stream.Ins("r", types.NewInt(int64(v)), types.NewInt(int64(v))))
	}
	for i := 0; i < 1024; i++ {
		steady = append(steady, stream.Ins("r", types.NewInt(int64(i%vals)), types.NewInt(int64(i%vals))))
	}
	got := allocPerEvent(t, "select min(b) from r", cat, warm, steady)
	t.Logf("sorted-map steady-state allocs/event = %g", got)
	const budget = 1.0
	if got > budget {
		t.Errorf("sorted-map allocs/event = %g, want <= %g", got, budget)
	}
}

// TestRegistryFanOutAllocsAndAdmitsOnce pins the registry's share of an
// event: a steady-state batch over sixteen live queries allocates nothing,
// and an event is admitted (validated and coerced against the catalog) once,
// not once per query. The second half counts admissions by their one
// observable cost: an int in a float column makes Coerce clone the tuple,
// so a batch of such events costs one allocation per event — it cost
// sixteen when every engine admitted for itself.
func TestRegistryFanOutAllocsAndAdmitsOnce(t *testing.T) {
	r := NewRegistry(true)
	const queries = 16
	for i := 0; i < queries; i++ {
		installLive(t, r, fmt.Sprintf("q%d", i), fmt.Sprintf("select sum(volume) from bids where price > %d", i))
	}
	exact := make([]stream.Event, 256)
	widened := make([]stream.Event, 256)
	for i := range exact {
		exact[i] = stream.Ins("bids", types.NewFloat(float64(i%32)), types.NewFloat(float64(i%5+1)))
		widened[i] = stream.Ins("bids", types.NewInt(int64(i%32)), types.NewFloat(float64(i%5+1)))
	}
	feed := func(evs []stream.Event) func() {
		return func() {
			if err := r.OnEventBatch(evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(exact)() // warm: scratch slices sized, every map entry born
	if got := testing.AllocsPerRun(10, feed(exact)); got != 0 {
		t.Errorf("fan-out of %d events over %d queries: %g allocs, want 0", len(exact), queries, got)
	}
	if got := testing.AllocsPerRun(10, feed(widened)); got != float64(len(widened)) {
		t.Errorf("fan-out of %d int-for-float events over %d queries: %g allocs, want one admission each = %d",
			len(widened), queries, got, len(widened))
	}
	one := widened[0]
	if got := testing.AllocsPerRun(10, func() {
		if err := r.OnEvent(one); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("single-event fan-out: %g allocs, want 1 admission", got)
	}
}
