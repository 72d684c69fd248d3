package runtime

import (
	"strings"
	"testing"

	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

// TestAdmissionKindMismatch pins the ingest-boundary hardening: a tuple
// whose value kind contradicts the trigger's declared column kind must be
// rejected with an error at admission — never a panic from the packed-key
// encoder deeper in the engine — and the engine must stay usable. The
// check must hold on every physical layout (an int-keyed group-by packs,
// a scalar sum stays generic) and under the debugger's statement wrapper.
func TestAdmissionKindMismatch(t *testing.T) {
	cat := rstCatalog()
	const grouped = "select A, sum(B) from R group by A"
	for _, tc := range []struct {
		name string
		sql  string
		opts Options
	}{
		{"typed", grouped, Options{}},
		{"generic", "select sum(B) from R", Options{}},
		{"wrapped", grouped, Options{StmtWrapper: func(_ *ir.Stmt, run func()) { run() }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compileSQL(t, cat, tc.sql)
			eng, err := NewEngine(c.Program, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			bad := types.Tuple{types.NewString("boom"), types.NewInt(1)}
			err = eng.OnEvent("R", true, bad)
			if err == nil {
				t.Fatal("string into int column accepted")
			}
			if !strings.Contains(err.Error(), "expects int") {
				t.Errorf("error = %v, want a column-kind message", err)
			}
			// The rejected event must not have corrupted state: a valid
			// event still lands.
			if err := eng.OnEvent("R", true, types.Tuple{types.NewInt(1), types.NewInt(5)}); err != nil {
				t.Fatalf("engine unusable after rejected event: %v", err)
			}
			entries := 0
			for _, st := range eng.MemStats() {
				entries += st.Entries
			}
			if entries == 0 {
				t.Error("no map entries after recovery; valid event was lost")
			}
		})
	}
}

// TestAdmissionArityMismatch: wrong-arity tuples error out before any
// statement runs.
func TestAdmissionArityMismatch(t *testing.T) {
	cat := rstCatalog()
	c := compileSQL(t, cat, "select sum(B) from R")
	eng, err := NewEngine(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.OnEvent("R", true, types.Tuple{types.NewInt(1)})
	if err == nil || !strings.Contains(err.Error(), "expects 2 args") {
		t.Fatalf("arity error = %v", err)
	}
}
