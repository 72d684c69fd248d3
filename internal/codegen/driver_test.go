package codegen

import (
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/translate"
)

// compileProgram runs the full front half (parse → analyze → translate →
// compile) and returns the annotated program.
func compileProgram(t *testing.T, src string) *compiler.Compiled {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sql.Analyze(stmt, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Translate("q", a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func generateDriver(t *testing.T, src string) (query, driver string) {
	t.Helper()
	c := compileProgram(t, src)
	query, err := Generate(c.Program, testCatalog(), "main")
	if err != nil {
		t.Fatal(err)
	}
	driver, err = GenerateDriver(c.Program, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return query, driver
}

// driverGoldenQueries pins the emitted driver: the stream loop, the typed
// event decoder, and the state dump.
// One query exercises a string-keyed group map plus a composite-key
// auxiliary, the other a scalar result with int keys. Regenerate with
// `go test ./internal/codegen -run TestGoldenGeneratedDriver -update`.
var driverGoldenQueries = map[string]string{
	"driver_group.go.golden": "select region, sum(amount), count(*) from sales group by region",
	"driver_join.go.golden":  "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
}

func TestGoldenGeneratedDriver(t *testing.T) {
	for file, src := range driverGoldenQueries {
		_, driver := generateDriver(t, src)
		path := filepath.Join("testdata", file)
		if *update {
			if err := os.WriteFile(path, []byte(driver), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", path, err)
		}
		if driver != string(want) {
			t.Errorf("%s: generated driver drifted from golden file for %q\n--- got ---\n%s\n--- want ---\n%s",
				file, src, driver, want)
		}
	}
}

func TestGeneratedDriverParses(t *testing.T) {
	for _, src := range []string{
		"select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
		"select region, sum(amount), count(*) from sales group by region",
		"select B, avg(A) from R group by B",
	} {
		_, driver := generateDriver(t, src)
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "driver.go", driver, parser.AllErrors); err != nil {
			t.Errorf("generated driver does not parse for %q: %v\n%s", src, err, driver)
		}
		if _, err := format.Source([]byte(driver)); err != nil {
			t.Errorf("generated driver not formattable for %q: %v", src, err)
		}
	}
}

// TestGeneratedDriverBuilds compiles query + driver as a real package main
// for representative shapes: composite int keys, string group keys, and
// the scalar-result join chain.
func TestGeneratedDriverBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping toolchain invocation")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	queries := []string{
		"select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
		"select region, sum(amount), count(*) from sales group by region",
		"select R.B, sum(A*D) from R, S, T where R.B=S.B and S.C=T.C group by R.B",
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, src := range queries {
		query, driver := generateDriver(t, src)
		sub := filepath.Join(dir, "q"+strings.Repeat("x", i+1))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "query.go"), []byte(query), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "driver.go"), []byte(driver), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("generated drivers do not build: %v\n%s", err, out)
	}
}

// TestProgramSpec checks the wire contract: relation order, per-column
// wire kinds, trigger directions, and map order.
func TestProgramSpec(t *testing.T) {
	c := compileProgram(t, "select region, sum(amount) from sales group by region")
	spec, err := ProgramSpec(c.Program, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rels) != 1 || spec.Rels[0].Name != "sales" {
		t.Fatalf("unexpected relation table %+v", spec.Rels)
	}
	r := spec.Rels[0]
	if !r.HasInsert || !r.HasDelete {
		t.Fatalf("expected both triggers, got %+v", r)
	}
	if got, want := len(r.Kinds), 3; got != want {
		t.Fatalf("kinds arity %d, want %d", got, want)
	}
	if spec.RelIndex("SALES") != 0 || spec.RelIndex("nope") != -1 {
		t.Fatalf("RelIndex lookup broken")
	}
	if len(spec.Maps) != len(c.Program.MapOrder) {
		t.Fatalf("map specs %d, want %d", len(spec.Maps), len(c.Program.MapOrder))
	}
	for i, ms := range spec.Maps {
		if ms.Name != c.Program.MapOrder[i] {
			t.Fatalf("map order diverges at %d: %s vs %s", i, ms.Name, c.Program.MapOrder[i])
		}
	}
}
