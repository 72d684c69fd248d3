package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// Dynamic query registry tests: hot-swap registration with WAL catch-up,
// cross-query map sharing, unregistration with ownership promotion, and
// crash recovery of the query set.

func dynCatalog() *schema.Catalog {
	return schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"))
}

const (
	dynMainSQL = "select B, sum(A) from R group by B"
	dynLateSQL = "select sum(A) from R where A > 2"
)

func snapshotOf(t *testing.T, eng engine.CompiledEngine) string {
	t.Helper()
	var buf strings.Builder
	d, ok := eng.(engine.Durable)
	if !ok {
		t.Fatal("engine is not durable")
	}
	if err := d.StateSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// replayPerRecord builds sqlText's engine from s's whole log the way replay
// worked before batches: ReplayRange, DecodeEvent, OnEvent, one record at a
// time, rejections ignored.
func replayPerRecord(t *testing.T, s *Server, sqlText string) engine.CompiledEngine {
	t.Helper()
	q, err := engine.Prepare(sqlText, s.cat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.NewToaster(q, runtime.Options{NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.wal.ReplayRange(0, 0, func(seq uint64, data []byte) error {
		if wal.RecordType(data) >= wal.RecRegister {
			return nil
		}
		rel, insert, args, err := wal.DecodeEvent(data)
		if err != nil {
			return err
		}
		op := stream.Delete
		if insert {
			op = stream.Insert
		}
		_ = ref.OnEvent(stream.Event{Op: op, Relation: rel, Args: args})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ref
}

func queryEngineOf(t *testing.T, s *Server, name string) engine.CompiledEngine {
	t.Helper()
	eng, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("query %q not live", name)
	}
	return eng
}

// TestRegisterCatchUpDifferential is the tentpole gate: a query registered
// mid-stream on a durable server is caught up from the WAL and swapped in
// without pausing ingest, and at quiescence its map state is bitwise
// identical to a server that had the query compiled in at boot.
func TestRegisterCatchUpDifferential(t *testing.T) {
	cat := dynCatalog()
	s, err := NewWithOptions(dynMainSQL, cat, Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	var history []stream.Event
	ev := func(i int) stream.Event {
		return stream.Ins("R", types.NewInt(int64(i%17)), types.NewInt(int64(i%5)))
	}
	// Preload enough history that catch-up has real work to do.
	const preload = 20000
	for lo := 0; lo < preload; lo += 500 {
		batch := make([]stream.Event, 0, 500)
		for i := lo; i < lo+500; i++ {
			batch = append(batch, ev(i))
		}
		history = append(history, batch...)
		if err := s.applyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	// Ingest single events for the whole registration window; the swap must
	// not pause it. Running the swap on a sibling goroutine and producing
	// here guarantees the two interleave even on GOMAXPROCS=1: each commit
	// round trip parks this goroutine, handing the processor over.
	regDone := make(chan error, 1)
	go func() { regDone <- s.Register("late", dynLateSQL) }()
	during := 0
	for i, registering := preload, true; registering; {
		select {
		case err := <-regDone:
			if err != nil {
				t.Fatalf("REGISTER mid-stream: %v", err)
			}
			registering = false
		default:
			e := ev(i)
			if err := s.applyEvent(e); err != nil {
				t.Fatal(err)
			}
			history = append(history, e)
			during++
			i++
		}
	}
	// A swap that held the ingest lock for the whole catch-up would admit
	// at most the one event queued behind the control section.
	if during < 5 {
		t.Errorf("only %d events were ingested while the registration was in flight; the swap paused ingest", during)
	}
	// Quiescence: a few more events through both paths after the swap.
	for i := 0; i < 100; i++ {
		e := stream.Ins("R", types.NewInt(int64(i)), types.NewInt(int64(i%3)))
		history = append(history, e)
		if err := s.applyEvent(e); err != nil {
			t.Fatal(err)
		}
	}

	// Oracle: the same query compiled at boot, fed the same history.
	oracle, err := New(dynLateSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.Close() })
	if err := oracle.applyBatch(history); err != nil {
		t.Fatal(err)
	}

	got := snapshotOf(t, queryEngineOf(t, s, "late"))
	want := snapshotOf(t, queryEngineOf(t, oracle, "main"))
	if got != want {
		t.Fatalf("registered-mid-stream map state differs from boot-time compilation\nhot-swap %d bytes, boot %d bytes", len(got), len(want))
	}
	// Reference without admission upstream: the log read back record by
	// record into a bare engine through OnEvent, which admits each event
	// itself and finds its trigger by name.
	if ref := replayPerRecord(t, s, dynLateSQL); snapshotOf(t, ref) != got {
		t.Fatal("registered-mid-stream map state differs from a per-record OnEvent replay of the log")
	}
	if infos := s.reg.Infos(); len(infos) != 2 || infos[1].State != engine.StateLive {
		t.Fatalf("registry = %+v", infos)
	}
}

// TestMapSharingRefcounts drives the cross-query sharing pool: queries
// registered at the same origin with the same view definitions adopt one
// map instance with a refcount, borrowers report zero owned entries
// (sub-linear footprint), and unregistering the owner promotes the oldest
// borrower without disturbing results.
func TestMapSharingRefcounts(t *testing.T) {
	s, err := New(dynMainSQL, dynCatalog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, name := range []string{"q2", "q3"} {
		if err := s.Register(name, dynMainSQL); err != nil {
			t.Fatal(err)
		}
	}
	pool := s.reg.Pool()
	if len(pool) == 0 {
		t.Fatal("no shared map pool entries for identical queries")
	}
	for sig, pi := range pool {
		if pi.Refs != 3 || pi.Owner != "main" {
			t.Fatalf("pool[%q] = %+v, want refs 3 owner main", sig, pi)
		}
	}

	for i := 0; i < 200; i++ {
		if err := s.applyEvent(stream.Ins("R", types.NewInt(int64(i)), types.NewInt(int64(i%4)))); err != nil {
			t.Fatal(err)
		}
	}
	mainEntries := queryEngineOf(t, s, "main").MemEntries()
	if mainEntries == 0 {
		t.Fatal("owner reports no entries")
	}
	// Sub-linear bytes: borrowers own nothing, so 3 queries cost 1 query's
	// storage.
	for _, name := range []string{"q2", "q3"} {
		if n := queryEngineOf(t, s, name).MemEntries(); n != 0 {
			t.Fatalf("borrower %s owns %d entries, want 0 (all maps shared)", name, n)
		}
	}
	wantSnap := snapshotOf(t, queryEngineOf(t, s, "main"))
	for _, name := range []string{"q2", "q3"} {
		if got := snapshotOf(t, queryEngineOf(t, s, name)); got != wantSnap {
			t.Fatalf("borrower %s state differs from owner", name)
		}
	}

	// Remove the owner: q2 (oldest borrower) inherits, refcount drops.
	if err := s.Unregister("main"); err != nil {
		t.Fatal(err)
	}
	for sig, pi := range s.reg.Pool() {
		if pi.Refs != 2 || pi.Owner != "q2" {
			t.Fatalf("after owner removal pool[%q] = %+v, want refs 2 owner q2", sig, pi)
		}
	}
	if n := queryEngineOf(t, s, "q2").MemEntries(); n == 0 {
		t.Fatal("promoted owner q2 reports no entries")
	}
	if n := queryEngineOf(t, s, "q3").MemEntries(); n != 0 {
		t.Fatalf("q3 still borrows, owns %d entries", n)
	}
	// The promoted engine must keep maintaining the shared state.
	for i := 0; i < 50; i++ {
		if err := s.applyEvent(stream.Ins("R", types.NewInt(7), types.NewInt(int64(i%4)))); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := snapshotOf(t, queryEngineOf(t, s, "q2")), snapshotOf(t, queryEngineOf(t, s, "q3")); a != b {
		t.Fatal("q2/q3 diverged after ownership promotion")
	}

	if err := s.Unregister("q3"); err != nil {
		t.Fatal(err)
	}
	for sig, pi := range s.reg.Pool() {
		if pi.Refs != 1 {
			t.Fatalf("pool[%q] refs = %d, want 1", sig, pi.Refs)
		}
	}
	if err := s.Unregister("q2"); err == nil {
		t.Fatal("unregistering the last query should be refused")
	}
}

// oracleSnapshot feeds evs to a fresh boot-time server for sql and returns
// its bitwise map state.
func oracleSnapshot(t *testing.T, sql string, evs []stream.Event) string {
	t.Helper()
	o, err := New(sql, dynCatalog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	if len(evs) > 0 {
		if err := o.applyBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	return snapshotOf(t, queryEngineOf(t, o, "main"))
}

// TestRegistrationCrashRecovery walks the crash points around a dynamic
// registration: before the REGISTER WAL record, right after it, after
// further events, and after the next checkpoint. In every case recovery
// restores the exact registered-query set, and a recovered query's state
// equals a boot-time compilation fed the history exactly once.
func TestRegistrationCrashRecovery(t *testing.T) {
	evsA := make([]stream.Event, 0, 40)
	for i := 0; i < 40; i++ {
		evsA = append(evsA, stream.Ins("R", types.NewInt(int64(i)), types.NewInt(int64(i%3))))
	}
	evsB := make([]stream.Event, 0, 25)
	for i := 0; i < 25; i++ {
		evsB = append(evsB, stream.Ins("R", types.NewInt(int64(100+i)), types.NewInt(int64(i%3))))
	}
	evsAB := append(append([]stream.Event{}, evsA...), evsB...)

	type scenario struct {
		name      string
		run       func(t *testing.T, s *Server) // pre-crash history
		wantQ2    bool
		wantState []stream.Event // q2's expected exactly-once history
		mainState []stream.Event // main's expected history
	}
	scenarios := []scenario{
		{
			// Crash between REGISTER being accepted and its WAL record:
			// emulated by a log holding only the events (the record is the
			// registration's commit point; without it the query is lost).
			name: "before-wal-record",
			run: func(t *testing.T, s *Server) {
				if err := s.applyBatch(evsA); err != nil {
					t.Fatal(err)
				}
			},
			wantQ2:    false,
			mainState: evsA,
		},
		{
			name: "after-register-record",
			run: func(t *testing.T, s *Server) {
				if err := s.applyBatch(evsA); err != nil {
					t.Fatal(err)
				}
				if err := s.Register("q2", dynLateSQL); err != nil {
					t.Fatal(err)
				}
			},
			wantQ2:    true,
			wantState: evsA,
			mainState: evsA,
		},
		{
			name: "register-then-tail",
			run: func(t *testing.T, s *Server) {
				if err := s.applyBatch(evsA); err != nil {
					t.Fatal(err)
				}
				if err := s.Register("q2", dynLateSQL); err != nil {
					t.Fatal(err)
				}
				if err := s.applyBatch(evsB); err != nil {
					t.Fatal(err)
				}
			},
			wantQ2:    true,
			wantState: evsAB,
			mainState: evsAB,
		},
		{
			name: "after-checkpoint",
			run: func(t *testing.T, s *Server) {
				if err := s.applyBatch(evsA); err != nil {
					t.Fatal(err)
				}
				if err := s.Register("q2", dynLateSQL); err != nil {
					t.Fatal(err)
				}
				if err := s.applyBatch(evsB); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			},
			wantQ2:    true,
			wantState: evsAB,
			mainState: evsAB,
		},
		{
			name: "unregistered-before-crash",
			run: func(t *testing.T, s *Server) {
				if err := s.applyBatch(evsA); err != nil {
					t.Fatal(err)
				}
				if err := s.Register("q2", dynLateSQL); err != nil {
					t.Fatal(err)
				}
				if err := s.applyBatch(evsB); err != nil {
					t.Fatal(err)
				}
				if err := s.Unregister("q2"); err != nil {
					t.Fatal(err)
				}
			},
			wantQ2:    false,
			mainState: evsAB,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			if sc.name == "before-wal-record" {
				// Build the crash-state log directly: events appended, no
				// registration record.
				m, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range evsA {
					if _, err := m.Append(wal.AppendEvent(nil, e.Relation, e.Op == stream.Insert, e.Args)); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				s, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{WALDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				sc.run(t, s)
				// Close without checkpoint: the WAL dir now holds exactly
				// the crash-time state.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}

			s2, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{WALDir: dir, Recover: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s2.Close() })
			_, ok := s2.reg.Get("q2")
			if ok != sc.wantQ2 {
				t.Fatalf("after recovery q2 live = %v, want %v (queries %v)", ok, sc.wantQ2, s2.reg.Names())
			}
			if sc.wantQ2 {
				got := snapshotOf(t, queryEngineOf(t, s2, "q2"))
				want := oracleSnapshot(t, dynLateSQL, sc.wantState)
				if got != want {
					t.Fatalf("recovered q2 state is not exactly-once\nrecovered %d bytes, oracle %d bytes", len(got), len(want))
				}
			}
			// Main must always survive with the full history.
			gotMain := snapshotOf(t, queryEngineOf(t, s2, "main"))
			if wantMain := oracleSnapshot(t, dynMainSQL, sc.mainState); gotMain != wantMain {
				t.Fatal("recovered main state differs from oracle")
			}
		})
	}
}

// TestSQLMismatchStructuredError pins the structured per-query mismatch
// error: recovery against a checkpoint written for different SQL must
// surface which query diverged, matchable with errors.As.
func TestSQLMismatchStructuredError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.applyEvent(stream.Ins("R", types.NewInt(1), types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = NewWithOptions(dynLateSQL, dynCatalog(), Options{WALDir: dir, Recover: true})
	if err == nil {
		t.Fatal("recovery with different SQL should fail")
	}
	var mismatch *SQLMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("error %v is not a *SQLMismatchError", err)
	}
	if mismatch.Query != "main" || mismatch.CheckpointSQL != dynMainSQL || mismatch.ConfiguredSQL != dynLateSQL {
		t.Fatalf("mismatch = %+v", mismatch)
	}
}

// TestDynamicProtocol drives REGISTER/UNREGISTER/LIST/STATS/METRICS TRACE
// over the wire: lifecycle listing, per-query namespaced stats, and the
// draining trace ring.
func TestDynamicProtocol(t *testing.T) {
	sink := metrics.NewWithConfig(metrics.Config{SampleEvery: 1})
	s, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.Register("other", dynLateSQL); err != nil {
		t.Fatal(err)
	}
	lines, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "main live ") || !strings.HasPrefix(lines[1], "other live ") {
		t.Fatalf("LIST = %q", lines)
	}

	for i := 0; i < 10; i++ {
		if err := c.Insert("R", types.NewInt(int64(i)), types.NewInt(int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	events, entries, body, err := c.StatsDetail()
	if err != nil {
		t.Fatal(err)
	}
	if events != 10 || entries == 0 {
		t.Fatalf("STATS head = %d %d", events, entries)
	}
	var sawQuery, sawMap bool
	for _, l := range body {
		if strings.HasPrefix(l, "query main ") {
			sawQuery = true
		}
		if strings.HasPrefix(l, "map main.") {
			sawMap = true
		}
	}
	if !sawQuery || !sawMap {
		t.Fatalf("STATS body lacks namespaced query/map lines: %q", body)
	}

	traces, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("METRICS TRACE empty at sample-every-1")
	}
	if !strings.Contains(traces[0], "relation=R") || !strings.Contains(traces[0], "latency_ns=") {
		t.Fatalf("trace line = %q", traces[0])
	}
	again, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second drain returned %d records, want 0", len(again))
	}

	// Per-query compile gauge is visible in the METRICS snapshot lines.
	mlines, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var sawCompile bool
	for _, l := range mlines {
		if strings.HasPrefix(l, "query other compile_seconds=") {
			sawCompile = true
		}
	}
	if !sawCompile {
		t.Fatal("METRICS lacks per-query compile_seconds line")
	}

	if err := c.Unregister("other"); err != nil {
		t.Fatal(err)
	}
	if lines, err = c.List(); err != nil || len(lines) != 1 {
		t.Fatalf("LIST after UNREGISTER = %q, %v", lines, err)
	}
	if _, _, err := c.ResultOf("other"); err == nil {
		t.Fatal("RESULT of removed query should fail")
	}
	if err := c.Unregister("main"); err == nil {
		t.Fatal("unregistering the last query should be refused over the wire")
	}
	if err := c.Register("bad name", dynLateSQL); err == nil {
		t.Fatal("query names with separators must be rejected")
	}
}

// TestRegisterResultNamespaced pins Result.Query propagation: RESULT bodies
// are attributable to a query by name.
func TestRegisterResultNamespaced(t *testing.T) {
	s, err := New(dynMainSQL, dynCatalog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.applyEvent(stream.Ins("R", types.NewInt(3), types.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	res, err := s.resultOf("")
	if err != nil {
		t.Fatal(err)
	}
	if res.Query != "main" {
		t.Fatalf("Result.Query = %q, want main", res.Query)
	}
	if !strings.HasPrefix(res.String(), "-- query: main\n") {
		t.Fatalf("Result.String lacks query header:\n%s", res.String())
	}
}

// BenchmarkRegistryRegister measures the dynamic registration pipeline on
// a durable server with retained history: per-iteration wall time covers
// compile + WAL catch-up + hot swap. It reports catch-up latency
// percentiles and the mean compile time alongside ns/op.
func BenchmarkRegistryRegister(b *testing.B) {
	captureLogs(b)
	cat := dynCatalog()
	s, err := NewWithOptions(dynMainSQL, cat, Options{WALDir: b.TempDir(), NoMetrics: false})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const history = 5000
	for lo := 0; lo < history; lo += 500 {
		batch := make([]stream.Event, 0, 500)
		for i := lo; i < lo+500; i++ {
			batch = append(batch, stream.Ins("R", types.NewInt(int64(i%23)), types.NewInt(int64(i%7))))
		}
		if err := s.applyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]float64, 0, b.N)
	var compileNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench%d", i)
		start := time.Now()
		if err := s.Register(name, dynLateSQL); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(time.Since(start)))
		compileNs += s.sink.Query(name).CompileNs.Load()
		if err := s.Unregister(name); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(lat) > 0 {
		sort.Float64s(lat)
		pct := func(q float64) float64 { return lat[int(q*float64(len(lat)-1))] }
		b.ReportMetric(pct(0.50), "p50_ns")
		b.ReportMetric(pct(0.99), "p99_ns")
		b.ReportMetric(float64(compileNs)/float64(len(lat)), "compile_ns")
	}
	b.ReportMetric(float64(history), "catchup_events")
}

// TestCatchUpEventOrdinalSkipsUntriggeredRelations pins how engines count
// events — runtime.Engine.Events, which is also the ordinal a chaos
// failpoint fires at. Ordinals are per engine instance. A boot-time engine
// counts every event fanned out to it, triggered or not. A catching-up
// engine counts only the records of relations it has a trigger on, because
// the log reader passes the others over undecoded, so it runs behind. The
// engine swapped in at registration is a fresh build and counts from zero.
func TestCatchUpEventOrdinalSkipsUntriggeredRelations(t *testing.T) {
	cat := schema.NewCatalog(schema.NewRelation("R", "A:int", "B:int"), schema.NewRelation("S", "C:int"))
	s, err := NewWithOptions(dynMainSQL, cat, Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	feed := func(rs, ss int) {
		t.Helper()
		var evs []stream.Event
		for i := 0; i < rs; i++ {
			evs = append(evs, stream.Ins("R", types.NewInt(int64(i)), types.NewInt(int64(i%3))))
		}
		for i := 0; i < ss; i++ {
			evs = append(evs, stream.Ins("S", types.NewInt(int64(i))))
		}
		if err := s.applyBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	eventsOf := func(eng engine.CompiledEngine) uint64 { return eng.(*engine.Toaster).Runtime().Events() }
	feed(30, 10)
	if got := eventsOf(queryEngineOf(t, s, "main")); got != 40 {
		t.Fatalf("boot-time engine counted %d events, want all 40", got)
	}

	q, err := engine.Prepare(dynMainSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := engine.NewToaster(q, runtime.Options{NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	cu := s.newCatchUp("late", tmp, 0)
	if _, err := cu.advance(s.wal, 0); err != nil {
		t.Fatal(err)
	}
	if got := eventsOf(tmp); got != 30 {
		t.Fatalf("catching-up engine counted %d events, want the 30 on R (the 10 on S are passed over)", got)
	}
	if snapshotOf(t, tmp) != snapshotOf(t, queryEngineOf(t, s, "main")) {
		t.Fatal("catching-up engine's state differs from the boot-time engine's")
	}

	if err := s.Register("late", dynMainSQL); err != nil {
		t.Fatal(err)
	}
	feed(5, 5)
	if got, want := eventsOf(queryEngineOf(t, s, "late")), uint64(10); got != want {
		t.Fatalf("swapped-in engine counted %d events, want %d: the fan-out's since the swap", got, want)
	}
	if got := eventsOf(queryEngineOf(t, s, "main")); got != 50 {
		t.Fatalf("boot-time engine counted %d events, want 50", got)
	}
}

// TestServedCatalogIsSealed: sessions and the log reader stamp events with
// ordinals of the server's catalog, and every engine's dispatch table is
// laid out over it, so the catalog a server was built with gains no
// relations afterwards — Add panics.
func TestServedCatalogIsSealed(t *testing.T) {
	cat := dynCatalog()
	s, err := New(dynMainSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	defer func() {
		if recover() == nil {
			t.Fatal("a relation was added to a served catalog")
		}
		if len(cat.Relations()) != 1 {
			t.Fatalf("served catalog holds %d relations, want 1", len(cat.Relations()))
		}
	}()
	cat.Add(schema.NewRelation("S", "C:int"))
}
