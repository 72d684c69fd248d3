package dbtoaster_test

import (
	"bytes"
	"strings"
	"testing"

	"dbtoaster"
)

func quickCatalog() *dbtoaster.Catalog {
	return dbtoaster.NewCatalog(
		dbtoaster.NewRelation("R", "A:int", "B:int"),
		dbtoaster.NewRelation("S", "B:int", "C:int"),
	)
}

func TestPublicAPIQuickstart(t *testing.T) {
	view, err := dbtoaster.Compile("select sum(R.A) from R, S where R.B = S.B", quickCatalog())
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(view.Insert("R", dbtoaster.Int(1), dbtoaster.Int(10)))
	must(view.Insert("R", dbtoaster.Int(2), dbtoaster.Int(10)))
	must(view.Insert("S", dbtoaster.Int(10), dbtoaster.Int(7)))
	must(view.Delete("R", dbtoaster.Int(1), dbtoaster.Int(10)))
	res, err := view.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 2 {
		t.Errorf("result = %s", res)
	}
	if view.MapCount() == 0 || view.MemEntries() == 0 {
		t.Error("view reports no state")
	}
	if !strings.Contains(view.Program(), "on +R") {
		t.Error("program rendering missing trigger")
	}
}

func TestPublicAPIOnEvent(t *testing.T) {
	view, err := dbtoaster.Compile("select B, sum(A) from R group by B", quickCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := view.OnEvent(dbtoaster.Insert("R", dbtoaster.Int(5), dbtoaster.Int(1))); err != nil {
		t.Fatal(err)
	}
	res, _ := view.Results()
	if len(res.Rows) != 1 || res.Rows[0][1].Float() != 5 {
		t.Errorf("result = %s", res)
	}
}

func TestPublicAPIGenerateGo(t *testing.T) {
	view, err := dbtoaster.Compile("select sum(R.A) from R, S where R.B = S.B", quickCatalog())
	if err != nil {
		t.Fatal(err)
	}
	code, err := view.GenerateGo("views")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "package views") || !strings.Contains(code, "OnInsertR") {
		t.Errorf("generated code incomplete:\n%s", code)
	}
}

func TestPublicAPIBaselinesAgree(t *testing.T) {
	sql := "select B, sum(A), count(*) from R group by B"
	cat := quickCatalog()
	view, err := dbtoaster.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := dbtoaster.NewBaseline(dbtoaster.NaiveReeval, sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	ivm, err := dbtoaster.NewBaseline(dbtoaster.FirstOrderIVM, sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	events := []dbtoaster.Event{
		dbtoaster.Insert("R", dbtoaster.Int(1), dbtoaster.Int(1)),
		dbtoaster.Insert("R", dbtoaster.Int(2), dbtoaster.Int(1)),
		dbtoaster.Insert("R", dbtoaster.Int(9), dbtoaster.Int(2)),
		dbtoaster.Delete("R", dbtoaster.Int(1), dbtoaster.Int(1)),
	}
	for _, ev := range events {
		for _, e := range []dbtoaster.Engine{view.Engine(), naive, ivm} {
			if err := e.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref, _ := view.Results()
	for _, e := range []dbtoaster.Engine{naive, ivm} {
		got, err := e.Results()
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got) {
			t.Errorf("%s disagrees:\n%s\nvs\n%s", e.Name(), ref, got)
		}
	}
}

func TestPublicAPIOptions(t *testing.T) {
	for _, opts := range [][]dbtoaster.Option{
		{},
		{dbtoaster.WithoutSliceIndexes()},
	} {
		view, err := dbtoaster.Compile("select sum(R.A) from R, S where R.B = S.B", quickCatalog(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Insert("R", dbtoaster.Int(1), dbtoaster.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPICompileErrors(t *testing.T) {
	cat := quickCatalog()
	for _, src := range []string{
		"not sql",
		"select sum(A) from Missing",
		"select A from R", // bare column without group by
	} {
		if _, err := dbtoaster.Compile(src, cat); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestMultiViewSharesMaps(t *testing.T) {
	cat := quickCatalog()
	sqls := []string{
		"select sum(R.A) from R, S where R.B = S.B",
		"select S.C, sum(R.A) from R, S where R.B = S.B group by S.C",
	}
	mv, err := dbtoaster.CompileMany(sqls, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Separately compiled views for comparison.
	v0, err := dbtoaster.Compile(sqls[0], cat)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := dbtoaster.Compile(sqls[1], cat)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Len() != 2 {
		t.Fatalf("Len = %d", mv.Len())
	}
	// Sharing: the merged program must have fewer maps than the sum of
	// the individual programs (both queries need sum(A) of R sliced by B).
	if mv.MapCount() >= v0.MapCount()+v1.MapCount() {
		t.Errorf("no sharing: multi=%d, separate=%d+%d", mv.MapCount(), v0.MapCount(), v1.MapCount())
	}
	events := []dbtoaster.Event{
		dbtoaster.Insert("R", dbtoaster.Int(5), dbtoaster.Int(1)),
		dbtoaster.Insert("S", dbtoaster.Int(1), dbtoaster.Int(7)),
		dbtoaster.Insert("R", dbtoaster.Int(2), dbtoaster.Int(1)),
		dbtoaster.Delete("R", dbtoaster.Int(5), dbtoaster.Int(1)),
	}
	for _, ev := range events {
		for _, apply := range []func(dbtoaster.Event) error{mv.OnEvent, v0.OnEvent, v1.OnEvent} {
			if err := apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, single := range []*dbtoaster.View{v0, v1} {
		want, err := single.Results()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mv.Results(i)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Errorf("query %d: multi-view disagrees\nwant:\n%s\ngot:\n%s", i, want, got)
		}
	}
	if _, err := mv.Results(5); err == nil {
		t.Error("out-of-range query index accepted")
	}
}

func TestMultiViewInsertDelete(t *testing.T) {
	mv, err := dbtoaster.CompileMany([]string{"select sum(A) from R", "select count(*) from R"}, quickCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := mv.Insert("R", dbtoaster.Int(4), dbtoaster.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := mv.Delete("R", dbtoaster.Int(4), dbtoaster.Int(0)); err != nil {
		t.Fatal(err)
	}
	res, err := mv.Results(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 0 {
		t.Errorf("count = %s", res)
	}
	if mv.MemEntries() != 0 {
		t.Errorf("entries = %d after cancel", mv.MemEntries())
	}
}

func TestViewAdHocMapAccess(t *testing.T) {
	view, err := dbtoaster.Compile("select B, sum(A) from R group by B", quickCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if view.SQL() == "" || view.Compiled() == nil {
		t.Error("accessors broken")
	}
	if err := view.Insert("R", dbtoaster.Int(5), dbtoaster.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := view.Insert("R", dbtoaster.Int(3), dbtoaster.Int(2)); err != nil {
		t.Fatal(err)
	}
	names := view.MapNames()
	if len(names) == 0 {
		t.Fatal("no map names")
	}
	// The paper's ad-hoc read-only interface: snapshot one map directly.
	entries := view.MapEntries(names[len(names)-1])
	if len(entries) != 2 {
		t.Fatalf("entries = %v", entries)
	}
	// Sorted by key and copied (mutation does not affect the view).
	if entries[0].Key.Compare(entries[1].Key) >= 0 {
		t.Error("entries not key-sorted")
	}
	entries[0].Key[0] = dbtoaster.Int(99)
	if got := view.MapEntries(names[len(names)-1]); got[0].Key[0].Int() == 99 {
		t.Error("snapshot aliases live map state")
	}
	if view.MapEntries("nonexistent") != nil {
		t.Error("unknown map should return nil")
	}
}

func TestViewSnapshotRestore(t *testing.T) {
	sql := "select B, sum(A) from R group by B"
	cat := quickCatalog()
	v1, err := dbtoaster.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Insert("R", dbtoaster.Int(4), dbtoaster.Int(1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := dbtoaster.Compile(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	r1, _ := v1.Results()
	r2, _ := v2.Results()
	if !r1.Equal(r2) {
		t.Errorf("restored view differs:\n%s\nvs\n%s", r1, r2)
	}
	// Resumed view keeps processing.
	if err := v2.Insert("R", dbtoaster.Int(6), dbtoaster.Int(1)); err != nil {
		t.Fatal(err)
	}
	r2, _ = v2.Results()
	if r2.Rows[0][1].Float() != 10 {
		t.Errorf("resumed sum = %s", r2)
	}
}
