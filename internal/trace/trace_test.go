package trace

import (
	"bytes"
	"strings"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

func tracerFor(t *testing.T, src string) (*Tracer, *bytes.Buffer) {
	t.Helper()
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
	)
	q, err := engine.Prepare(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr, err := New(q, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr, &buf
}

func TestTraceShowsStatementsAndChanges(t *testing.T) {
	tr, buf := tracerFor(t, "select sum(R.A) from R, S where R.B = S.B")
	if err := tr.OnEvent(stream.Ins("R", types.NewInt(5), types.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "event +R(5, 1)") {
		t.Errorf("missing event header:\n%s", out)
	}
	if !strings.Contains(out, "stmt:") {
		t.Errorf("missing statement lines:\n%s", out)
	}
	if !strings.Contains(out, "-> 5") {
		t.Errorf("missing map change:\n%s", out)
	}
	// A statement with no effect (join partner absent) reports no change.
	if !strings.Contains(out, "(no change)") {
		t.Errorf("expected a no-change statement:\n%s", out)
	}
}

func TestTraceMaintainsCorrectState(t *testing.T) {
	tr, _ := tracerFor(t, "select sum(R.A) from R, S where R.B = S.B")
	events := []stream.Event{
		stream.Ins("R", types.NewInt(5), types.NewInt(1)),
		stream.Ins("S", types.NewInt(1), types.NewInt(9)),
		stream.Del("R", types.NewInt(5), types.NewInt(1)),
	}
	for _, ev := range events {
		if err := tr.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	tr.out = &buf
	tr.DumpMaps()
	out := buf.String()
	if !strings.Contains(out, "map q") {
		t.Errorf("dump missing result map:\n%s", out)
	}
	// After insert+delete of the only R row, q must be 0 entries.
	if !strings.Contains(out, "map q (0 entries)") {
		t.Errorf("q not back to empty:\n%s", out)
	}
}

func TestTraceStepFunc(t *testing.T) {
	tr, buf := tracerFor(t, "select sum(A) from R")
	steps := 0
	tr.SetStepFunc(func() bool { steps++; return false })
	if err := tr.OnEvent(stream.Ins("R", types.NewInt(1), types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Error("step function never called")
	}
	// Suppressed output still executes statements.
	if strings.Contains(buf.String(), "stmt:") {
		t.Error("step=false should suppress statement output")
	}
	var out bytes.Buffer
	tr.out = &out
	tr.DumpMaps()
	if !strings.Contains(out.String(), "= 1") {
		t.Errorf("state not maintained when stepping suppressed:\n%s", out.String())
	}
}

func TestTraceRejectsUnknownRelation(t *testing.T) {
	tr, _ := tracerFor(t, "select sum(A) from R")
	if err := tr.OnEvent(stream.Ins("Z", types.NewInt(1))); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestTraceProgramAndSummary(t *testing.T) {
	tr, _ := tracerFor(t, "select sum(A) from R")
	if !strings.Contains(tr.Program(), "on +R") {
		t.Error("program missing trigger")
	}
	if tr.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestTracedStateEqualsUntraced runs the tracer over queries whose maps
// take packed int keys, where the wrapped statements are the typed
// kernels, and requires the traced engine's state to be byte-for-byte the
// snapshot of an untraced Toaster fed the same stream.
func TestTracedStateEqualsUntraced(t *testing.T) {
	cat := orderbook.Catalog()
	events := orderbook.NewGenerator(3, 20).Events(400)
	for _, src := range []string{orderbook.QueryBrokerActivity, orderbook.QueryTwoSidedVolume} {
		q, err := engine.Prepare(src, cat)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		tr, err := New(q, &out)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := engine.NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := tr.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
			if err := plain.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		packed := 0
		for _, st := range tr.rt.MemStats() {
			if st.Layout != "generic" {
				packed++
			}
		}
		if packed == 0 {
			t.Fatalf("%s: no packed map under the tracer", src)
		}
		if !strings.Contains(out.String(), "stmt:") {
			t.Fatalf("%s: no statement traced", src)
		}
		var traced, untraced bytes.Buffer
		if err := tr.rt.Snapshot(&traced); err != nil {
			t.Fatal(err)
		}
		if err := plain.StateSnapshot(&untraced, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(traced.Bytes(), untraced.Bytes()) {
			t.Errorf("%s: traced state (%d bytes) differs from untraced (%d bytes)", src, traced.Len(), untraced.Len())
		}
	}
}
