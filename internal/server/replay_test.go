package server

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// What replay reads. The log has no index, so the cost of a catch-up or a
// recovery is the bytes it reads; these tests pin those to the retained log
// once over, plus a chunk per bounded range, through the server's own
// counters and its one log record per registration and per recovery.

// walChunk mirrors the wal package's read granularity (1 MiB).
const walChunk = 1 << 20

// logCapture collects slog records by message.
type logCapture struct {
	mu   sync.Mutex
	recs map[string][]map[string]any
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }
func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	attrs := map[string]any{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.Any()
		return true
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[r.Message] = append(c.recs[r.Message], attrs)
	return nil
}

func (c *logCapture) last(t *testing.T, msg string) map[string]any {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.recs[msg]) == 0 {
		t.Fatalf("no %q log record", msg)
	}
	return c.recs[msg][len(c.recs[msg])-1]
}

// captureLogs routes the process's slog records into the returned capture
// for the rest of the test (or benchmark, whose result line they would
// otherwise split).
func captureLogs(t testing.TB) *logCapture {
	t.Helper()
	c := &logCapture{recs: map[string][]map[string]any{}}
	prev := slog.Default()
	slog.SetDefault(slog.New(c))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return c
}

// fillLog ingests n events on R in BATCH-sized requests.
func fillLog(t *testing.T, s *Server, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 256 {
		batch := make([]stream.Event, 0, 256)
		for i := lo; i < min(lo+256, n); i++ {
			batch = append(batch, stream.Ins("R", types.NewInt(int64(i%23)), types.NewInt(int64(i%7))))
		}
		if err := s.applyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
}

func logBytes(t *testing.T, dir string) uint64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += uint64(fi.Size())
	}
	return n
}

// TestRegisterReadsLogOnce: on an idle server a REGISTER reads the retained
// log once — not once to replay, once to find nothing new and once more for
// the drain — and the drain, which runs under the control lane with both
// server locks held, reads under a chunk. Then the same server recovers:
// the early REGISTER records, whose catch-up ranges end where they start,
// cost a chunk each instead of a pass over the log each.
func TestRegisterReadsLogOnce(t *testing.T) {
	logs := captureLogs(t)
	dir := t.TempDir()
	s, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const early, events = 6, 120_000 // ≈ 4 chunks of log
	for i := 0; i < early; i++ {
		if err := s.Register(fmt.Sprintf("early%d", i), dynLateSQL); err != nil {
			t.Fatal(err)
		}
	}
	fillLog(t, s, events)
	size := logBytes(t, dir)
	if size < 3*walChunk {
		t.Fatalf("log is %d bytes; the test wants several chunks", size)
	}

	before := s.sink.Snapshot().WAL.ReplayBytes
	if err := s.Register("late", dynLateSQL); err != nil {
		t.Fatal(err)
	}
	read := s.sink.Snapshot().WAL.ReplayBytes - before
	if read < size || read > size+walChunk {
		t.Errorf("REGISTER on an idle server read %d bytes of a %d-byte log; want one pass", read, size)
	}
	rec := logs.last(t, "registration caught up")
	if rec["query"] != "late" || rec["from_seq"] != uint64(0) || rec["bytes"] != read ||
		rec["records"] != uint64(events+early) || rec["rejected"] != int64(0) {
		t.Errorf("registration log record = %v", rec)
	}
	if db, ok := rec["drain_bytes"].(uint64); !ok || db > walChunk {
		t.Errorf("final drain under the control lane read %v bytes; want at most a chunk", rec["drain_bytes"])
	}
	if got := s.sink.Query("late").CatchupEvents.Load(); got != events {
		t.Errorf("catchup_events = %d, want %d", got, events)
	}
	wantState := snapshotOf(t, queryEngineOf(t, s, "early0"))
	if got := snapshotOf(t, queryEngineOf(t, s, "late")); got != wantState {
		t.Error("caught-up query's state differs from a query that saw the events live")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: one pass for the tail, plus a chunk for each of the early
	// REGISTER records and one full catch-up for the late one.
	size = logBytes(t, dir)
	s2, err := NewWithOptions(dynMainSQL, dynCatalog(), Options{WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	read = s2.sink.Snapshot().WAL.ReplayBytes
	if limit := 2*size + early*walChunk; read > limit {
		t.Errorf("recovery read %d bytes of a %d-byte log with %d early REGISTER records; want at most %d", read, size, early, limit)
	}
	info, _ := s2.Recovery()
	rec = logs.last(t, "recovered")
	if info.BytesRead != size || info.Elapsed <= 0 || rec["bytes"] != size ||
		rec["records"] != info.Replayed || rec["catchup_bytes"] != read-size {
		t.Errorf("RecoveryInfo = %+v, log record = %v; log is %d bytes, %d read in all", info, rec, size, read)
	}
	if got := snapshotOf(t, queryEngineOf(t, s2, "late")); got != wantState {
		t.Error("recovered query's state differs from its state before the restart")
	}
}
