package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

func testCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("T", "C:int", "D:int"),
		schema.NewRelation("bids", "price:float", "volume:float"),
		schema.NewRelation("sales", "region:string", "amount:int", "qty:int"),
	)
}

// allEngines builds one of each engine for a query.
func allEngines(t *testing.T, src string) []Engine {
	t.Helper()
	q, err := Prepare(src, testCatalog())
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	toaster, err := NewToaster(q, runtime.Options{})
	if err != nil {
		t.Fatalf("NewToaster(%q): %v", src, err)
	}
	return []Engine{toaster, NewNaive(q), NewIVM(q)}
}

func feedAll(t *testing.T, engines []Engine, evs []stream.Event) {
	t.Helper()
	for _, ev := range evs {
		for _, e := range engines {
			if err := e.OnEvent(ev); err != nil {
				t.Fatalf("%s: OnEvent(%s): %v", e.Name(), ev, err)
			}
		}
	}
}

func requireAgreement(t *testing.T, engines []Engine, context string) *Result {
	t.Helper()
	ref, err := engines[0].Results()
	if err != nil {
		t.Fatalf("%s: %s Results: %v", context, engines[0].Name(), err)
	}
	for _, e := range engines[1:] {
		got, err := e.Results()
		if err != nil {
			t.Fatalf("%s: %s Results: %v", context, e.Name(), err)
		}
		if !ref.Equal(got) {
			t.Fatalf("%s: engines disagree\n%s:\n%s\n%s:\n%s", context, engines[0].Name(), ref, e.Name(), got)
		}
	}
	return ref
}

func i64(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.NewInt(v)
	}
	return t
}

func TestPaperQueryAllEnginesAgree(t *testing.T) {
	engines := allEngines(t, "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C")
	evs := []stream.Event{
		{Op: stream.Insert, Relation: "R", Args: i64(1, 10)},
		{Op: stream.Insert, Relation: "S", Args: i64(10, 100)},
		{Op: stream.Insert, Relation: "T", Args: i64(100, 7)},
		{Op: stream.Insert, Relation: "R", Args: i64(2, 10)},
		{Op: stream.Insert, Relation: "T", Args: i64(100, 3)},
		{Op: stream.Delete, Relation: "R", Args: i64(1, 10)},
	}
	for i, ev := range evs {
		feedAll(t, engines, evs[i:i+1])
		requireAgreement(t, engines, ev.String())
	}
	res := requireAgreement(t, engines, "final")
	// Final value: R={(2,10)}, S={(10,100)}, T={(100,7),(100,3)} → 2*7+2*3 = 20.
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 20 {
		t.Errorf("final = %s", res)
	}
}

func TestGroupByAllEnginesAgree(t *testing.T) {
	engines := allEngines(t, "select region, sum(amount), count(*), avg(amount) from sales group by region")
	evs := []stream.Event{
		stream.Ins("sales", types.NewString("east"), types.NewInt(10), types.NewInt(1)),
		stream.Ins("sales", types.NewString("east"), types.NewInt(30), types.NewInt(2)),
		stream.Ins("sales", types.NewString("west"), types.NewInt(5), types.NewInt(1)),
		stream.Del("sales", types.NewString("east"), types.NewInt(10), types.NewInt(1)),
	}
	feedAll(t, engines, evs)
	res := requireAgreement(t, engines, "group-by")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %s", res)
	}
	// east: sum 30, count 1, avg 30
	if res.Rows[0][0].Str() != "east" || res.Rows[0][1].Float() != 30 || res.Rows[0][2].Float() != 1 || res.Rows[0][3].Float() != 30 {
		t.Errorf("east row = %v", res.Rows[0])
	}
}

func TestGroupDisappearsWhenEmpty(t *testing.T) {
	engines := allEngines(t, "select region, sum(amount) from sales group by region")
	feedAll(t, engines, []stream.Event{
		stream.Ins("sales", types.NewString("east"), types.NewInt(10), types.NewInt(1)),
		stream.Del("sales", types.NewString("east"), types.NewInt(10), types.NewInt(1)),
	})
	res := requireAgreement(t, engines, "empty group")
	if len(res.Rows) != 0 {
		t.Errorf("expected no rows, got %s", res)
	}
}

func TestZeroSumGroupStillExists(t *testing.T) {
	// Sum is 0 but the group has supporting tuples: the row must remain.
	engines := allEngines(t, "select region, sum(amount) from sales group by region")
	feedAll(t, engines, []stream.Event{
		stream.Ins("sales", types.NewString("east"), types.NewInt(5), types.NewInt(1)),
		stream.Ins("sales", types.NewString("east"), types.NewInt(-5), types.NewInt(1)),
	})
	res := requireAgreement(t, engines, "zero-sum group")
	if len(res.Rows) != 1 || res.Rows[0][1].Float() != 0 {
		t.Errorf("zero-sum group lost: %s", res)
	}
}

func TestMinMaxAllEnginesAgree(t *testing.T) {
	engines := allEngines(t, "select region, min(amount), max(amount) from sales group by region")
	evs := []stream.Event{
		stream.Ins("sales", types.NewString("e"), types.NewInt(5), types.NewInt(1)),
		stream.Ins("sales", types.NewString("e"), types.NewInt(3), types.NewInt(1)),
		stream.Ins("sales", types.NewString("e"), types.NewInt(9), types.NewInt(1)),
		stream.Ins("sales", types.NewString("w"), types.NewInt(7), types.NewInt(1)),
		// Delete the current min and the current max.
		stream.Del("sales", types.NewString("e"), types.NewInt(3), types.NewInt(1)),
		stream.Del("sales", types.NewString("e"), types.NewInt(9), types.NewInt(1)),
	}
	for i := range evs {
		feedAll(t, engines, evs[i:i+1])
		requireAgreement(t, engines, evs[i].String())
	}
	res := requireAgreement(t, engines, "final")
	if res.Rows[0][1].Float() != 5 || res.Rows[0][2].Float() != 5 {
		t.Errorf("min/max after deletes = %s", res)
	}
}

func TestAvgOfEmptyIsNull(t *testing.T) {
	engines := allEngines(t, "select avg(amount) from sales")
	res := requireAgreement(t, engines, "empty avg")
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Errorf("avg over empty = %s", res)
	}
}

func TestThresholdSubqueryAllEnginesAgree(t *testing.T) {
	// Sum of price*volume over bids whose price exceeds a quarter of the
	// total volume — the uncorrelated VWAP shape.
	engines := allEngines(t, `select sum(price*volume) from bids
		where price > 0.25 * (select sum(volume) from bids)`)
	r := rand.New(rand.NewSource(5))
	var live []types.Tuple
	for i := 0; i < 200; i++ {
		var ev stream.Event
		if len(live) > 0 && r.Intn(3) == 0 {
			idx := r.Intn(len(live))
			ev = stream.Event{Op: stream.Delete, Relation: "bids", Args: live[idx]}
			live = append(live[:idx], live[idx+1:]...)
		} else {
			// Quarter-step prices/volumes: exact in float64, so engine
			// agreement is exact.
			args := types.Tuple{
				types.NewFloat(float64(r.Intn(80)) * 0.25),
				types.NewFloat(float64(1 + r.Intn(20))),
			}
			ev = stream.Event{Op: stream.Insert, Relation: "bids", Args: args}
			live = append(live, args)
		}
		feedAll(t, engines, []stream.Event{ev})
		if i%20 == 19 {
			requireAgreement(t, engines, ev.String())
		}
	}
	requireAgreement(t, engines, "final threshold")
}

func TestGroupedThresholdSubquery(t *testing.T) {
	// Threshold predicate on a GROUP BY query: per-region amount of rows
	// whose qty exceeds a fraction of the total qty.
	engines := allEngines(t, `select region, sum(amount) from sales
		where qty > 0.1 * (select sum(qty) from sales) group by region`)
	r := rand.New(rand.NewSource(17))
	regions := []string{"e", "w", "n"}
	var live []types.Tuple
	for i := 0; i < 150; i++ {
		var ev stream.Event
		if len(live) > 0 && r.Intn(3) == 0 {
			idx := r.Intn(len(live))
			ev = stream.Event{Op: stream.Delete, Relation: "sales", Args: live[idx]}
			live = append(live[:idx], live[idx+1:]...)
		} else {
			args := types.Tuple{
				types.NewString(regions[r.Intn(len(regions))]),
				types.NewInt(int64(1 + r.Intn(50))),
				types.NewInt(int64(1 + r.Intn(9))),
			}
			ev = stream.Event{Op: stream.Insert, Relation: "sales", Args: args}
			live = append(live, args)
		}
		feedAll(t, engines, []stream.Event{ev})
		if i%30 == 29 {
			requireAgreement(t, engines, ev.String())
		}
	}
	requireAgreement(t, engines, "final grouped threshold")
}

func TestMinOverJoin(t *testing.T) {
	// MIN over a join expression: the compiler must promote the lift's
	// interior variable and enumerate it through a loop.
	engines := allEngines(t, "select min(R.A + S.C) from R, S where R.B = S.B")
	evs := []stream.Event{
		{Op: stream.Insert, Relation: "R", Args: i64(5, 1)},
		{Op: stream.Insert, Relation: "S", Args: i64(1, 10)},
		{Op: stream.Insert, Relation: "R", Args: i64(2, 1)},
		{Op: stream.Insert, Relation: "S", Args: i64(1, 3)},
		{Op: stream.Delete, Relation: "S", Args: i64(1, 3)}, // removes current min
		{Op: stream.Delete, Relation: "R", Args: i64(2, 1)},
	}
	for i := range evs {
		feedAll(t, engines, evs[i:i+1])
		requireAgreement(t, engines, evs[i].String())
	}
	res := requireAgreement(t, engines, "final min-over-join")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 15 {
		t.Errorf("min = %s, want 15", res)
	}
}

// TestRandomStreamsPropertyAllQueries is the system's cross-engine fuzz
// test: random streams through every supported query shape, requiring
// exact agreement between compiled, naive, and first-order engines.
func TestRandomStreamsPropertyAllQueries(t *testing.T) {
	queries := []string{
		"select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
		"select B, sum(A) from R group by B",
		"select S.C, sum(R.A), count(*) from R, S where R.B = S.B group by S.C",
		"select sum(x.A * y.A) from R x, R y where x.B = y.B",
		"select min(A), max(A) from R",
		"select B, min(A) from R group by B",
		"select count(*) from R, S where R.B = S.B and R.A >= 2",
		"select sum(R.A) from R, T where R.A < T.D",
		"select avg(A) from R where B = 1 or B = 3",
		"select sum(A) from R where not A > 5",
	}
	for _, src := range queries {
		src := src
		t.Run(src, func(t *testing.T) {
			engines := allEngines(t, src)
			r := rand.New(rand.NewSource(99))
			var history []stream.Event
			for i := 0; i < 250; i++ {
				var ev stream.Event
				if len(history) > 0 && r.Intn(3) == 0 {
					old := history[r.Intn(len(history))]
					ev = stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args}
				} else {
					rel := []string{"R", "S", "T"}[r.Intn(3)]
					ev = stream.Event{Op: stream.Insert, Relation: rel,
						Args: i64(int64(r.Intn(6)), int64(r.Intn(6)))}
					history = append(history, ev)
				}
				feedAll(t, engines, []stream.Event{ev})
				if i%25 == 24 {
					requireAgreement(t, engines, ev.String())
				}
			}
			requireAgreement(t, engines, "final")
		})
	}
}

func TestThresholdOperatorVariants(t *testing.T) {
	// Exercise every comparison operator against a subquery threshold.
	for _, op := range []string{">", ">=", "<", "<=", "=", "<>"} {
		src := fmt.Sprintf(
			"select sum(amount) from sales where qty %s 0.5 * (select count(*) from sales)", op)
		engines := allEngines(t, src)
		evs := []stream.Event{
			stream.Ins("sales", types.NewString("a"), types.NewInt(10), types.NewInt(1)),
			stream.Ins("sales", types.NewString("b"), types.NewInt(20), types.NewInt(2)),
			stream.Ins("sales", types.NewString("c"), types.NewInt(40), types.NewInt(3)),
			stream.Del("sales", types.NewString("b"), types.NewInt(20), types.NewInt(2)),
			stream.Ins("sales", types.NewString("d"), types.NewInt(80), types.NewInt(1)),
		}
		for i := range evs {
			feedAll(t, engines, evs[i:i+1])
			requireAgreement(t, engines, op+" after "+evs[i].String())
		}
	}
}

func TestConstantAndNegatedItems(t *testing.T) {
	engines := allEngines(t, "select 7, 'tag', -sum(amount), 2 * count(*) from sales")
	feedAll(t, engines, []stream.Event{
		stream.Ins("sales", types.NewString("x"), types.NewInt(3), types.NewInt(1)),
		stream.Ins("sales", types.NewString("x"), types.NewInt(4), types.NewInt(1)),
	})
	res := requireAgreement(t, engines, "constant items")
	row := res.Rows[0]
	if row[0].Float() != 7 || row[1].Str() != "tag" || row[2].Float() != -7 || row[3].Float() != 4 {
		t.Errorf("row = %v", row)
	}
}

func TestMultiToasterDirect(t *testing.T) {
	cat := testCatalog()
	var qs []*Query
	for _, src := range []string{"select sum(A) from R", "select B, count(*) from R group by B"} {
		q, err := Prepare(src, cat)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	m, err := NewToasterMulti(qs, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.MapCount() == 0 {
		t.Fatalf("len=%d maps=%d", m.Len(), m.MapCount())
	}
	if err := m.OnEvent(stream.Ins("R", types.NewInt(4), types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	r0, err := m.Results(0)
	if err != nil || r0.Rows[0][0].Float() != 4 {
		t.Errorf("q0 = %v %v", r0, err)
	}
	r1, err := m.Results(1)
	if err != nil || len(r1.Rows) != 1 {
		t.Errorf("q1 = %v %v", r1, err)
	}
	if m.MemEntries() == 0 || m.Compiled() == nil {
		t.Error("accessors broken")
	}
	if _, err := m.Results(9); err == nil {
		t.Error("bad index accepted")
	}
	// Mismatched catalogs rejected.
	other, err := Prepare("select sum(A) from R", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewToasterMulti([]*Query{qs[0], other}, runtime.Options{}); err == nil {
		t.Error("mixed catalogs accepted")
	}
	if _, err := NewToasterMulti(nil, runtime.Options{}); err == nil {
		t.Error("empty query list accepted")
	}
}

func TestEngineNames(t *testing.T) {
	engines := allEngines(t, "select sum(A) from R")
	want := []string{"dbtoaster", "naive-reeval", "first-order-ivm"}
	for i, e := range engines {
		if e.Name() != want[i] {
			t.Errorf("engine %d name = %q, want %q", i, e.Name(), want[i])
		}
	}
}

func TestEngineRejectsBadEvents(t *testing.T) {
	engines := allEngines(t, "select sum(A) from R")
	for _, e := range engines {
		if err := e.OnEvent(stream.Ins("Nope", types.NewInt(1))); err == nil {
			t.Errorf("%s accepted unknown relation", e.Name())
		}
		if err := e.OnEvent(stream.Ins("R", types.NewInt(1))); err == nil {
			t.Errorf("%s accepted wrong arity", e.Name())
		}
	}
}

func TestMemEntriesGrowAndShrink(t *testing.T) {
	engines := allEngines(t, "select B, sum(A) from R group by B")
	feedAll(t, engines, []stream.Event{
		stream.Ins("R", types.NewInt(1), types.NewInt(1)),
		stream.Ins("R", types.NewInt(2), types.NewInt(2)),
	})
	for _, e := range engines {
		if e.MemEntries() == 0 {
			t.Errorf("%s reports zero entries after inserts", e.Name())
		}
	}
	feedAll(t, engines, []stream.Event{
		stream.Del("R", types.NewInt(1), types.NewInt(1)),
		stream.Del("R", types.NewInt(2), types.NewInt(2)),
	})
	for _, e := range engines {
		if n := e.MemEntries(); n != 0 {
			t.Errorf("%s retains %d entries after full deletion", e.Name(), n)
		}
	}
}

func TestResultStringRendering(t *testing.T) {
	engines := allEngines(t, "select region, sum(amount) from sales group by region")
	feedAll(t, engines, []stream.Event{
		stream.Ins("sales", types.NewString("e"), types.NewInt(4), types.NewInt(1)),
	})
	res, err := engines[0].Results()
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if s == "" || len(res.Columns) != 2 {
		t.Errorf("render = %q", s)
	}
}

func TestResultStringAlignsColumns(t *testing.T) {
	res := &Result{
		Columns: []string{"region", "s", "long_column"},
		Rows: []types.Tuple{
			{types.NewString("east"), types.NewInt(1234567), types.NewInt(1)},
			{types.NewString("w"), types.NewInt(3), types.NewInt(42)},
		},
	}
	got := res.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d\n%s", len(lines), got)
	}
	// Every separator must sit at the same byte offset in every line.
	idx := func(s string) []int {
		var out []int
		for i := 0; i+2 < len(s); i++ {
			if s[i:i+3] == " | " {
				out = append(out, i)
			}
		}
		return out
	}
	ref := idx(lines[0])
	if len(ref) != 2 {
		t.Fatalf("header separators = %v\n%s", ref, got)
	}
	for _, ln := range lines[1:] {
		cur := idx(ln)
		if len(cur) != len(ref) {
			t.Fatalf("separator count mismatch: %v vs %v\n%s", cur, ref, got)
		}
		for i := range ref {
			if cur[i] != ref[i] {
				t.Errorf("misaligned column %d: offset %d vs %d\n%s", i, cur[i], ref[i], got)
			}
		}
	}
	// Cells wider than their header stretch the column.
	if !strings.Contains(lines[0], "region | s       | long_column") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestHavingAllEnginesAgree(t *testing.T) {
	engines := allEngines(t, `select region, sum(amount), count(*) from sales
		group by region having sum(amount) > 20 and count(*) >= 2`)
	evs := []stream.Event{
		stream.Ins("sales", types.NewString("e"), types.NewInt(15), types.NewInt(1)),
		stream.Ins("sales", types.NewString("e"), types.NewInt(10), types.NewInt(1)),
		stream.Ins("sales", types.NewString("w"), types.NewInt(50), types.NewInt(1)), // sum>20 but count 1
		stream.Ins("sales", types.NewString("n"), types.NewInt(5), types.NewInt(1)),
		stream.Ins("sales", types.NewString("n"), types.NewInt(5), types.NewInt(1)),
	}
	for i := range evs {
		feedAll(t, engines, evs[i:i+1])
		requireAgreement(t, engines, evs[i].String())
	}
	res := requireAgreement(t, engines, "final having")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "e" {
		t.Errorf("having filter = %s", res)
	}
	// Deleting a row drops the group back below the threshold.
	feedAll(t, engines, []stream.Event{
		stream.Del("sales", types.NewString("e"), types.NewInt(15), types.NewInt(1)),
	})
	res = requireAgreement(t, engines, "after delete")
	if len(res.Rows) != 0 {
		t.Errorf("having should filter all groups: %s", res)
	}
}

func TestHavingWithAggregateNotInSelect(t *testing.T) {
	// The HAVING aggregate (min) does not appear in SELECT: it must still
	// be compiled and maintained as a component.
	engines := allEngines(t, `select region, count(*) from sales
		group by region having min(amount) >= 10 or not count(*) > 1`)
	evs := []stream.Event{
		stream.Ins("sales", types.NewString("a"), types.NewInt(5), types.NewInt(1)),
		stream.Ins("sales", types.NewString("a"), types.NewInt(50), types.NewInt(1)),
		stream.Ins("sales", types.NewString("b"), types.NewInt(30), types.NewInt(1)),
		stream.Ins("sales", types.NewString("b"), types.NewInt(12), types.NewInt(1)),
	}
	feedAll(t, engines, evs)
	res := requireAgreement(t, engines, "having min")
	// Group a: min 5 <10, count 2 → out. Group b: min 12 ≥10 → in.
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Errorf("having-min filter = %s", res)
	}
}
