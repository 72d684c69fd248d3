package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

func mainEngine(t *testing.T, s *Server) engine.CompiledEngine {
	t.Helper()
	eng, ok := s.reg.Get("main")
	if !ok {
		t.Fatal("main query not registered")
	}
	return eng
}

func durCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("sales", "region:string", "amount:float"),
	)
}

func startDurable(t *testing.T, sql string, opts Options) (*Server, *Client) {
	t.Helper()
	return startDurableOn(t, durCatalog(), sql, opts)
}

func startDurableOn(t *testing.T, cat *schema.Catalog, sql string, opts Options) (*Server, *Client) {
	t.Helper()
	s, err := NewWithOptions(sql, cat, opts)
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
	return s, c
}

// TestServerCheckpointRecover: ingest, CHECKPOINT, more ingest, shut down,
// restart the same directory with recovery — the recovered server must
// answer identically (checkpoint restore plus log-tail replay) and resume
// the event counter.
func TestServerCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	sql := "select B, sum(A) from R group by B"
	_, c := startDurable(t, sql, Options{WALDir: dir})

	if err := c.Insert("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(3), types.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	gen, wm, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	if gen != 1 || wm != 2 {
		t.Fatalf("CHECKPOINT = (gen %d, wm %d), want (1, 2)", gen, wm)
	}
	// Post-checkpoint tail: replayed from the log, not the checkpoint.
	if err := c.Batch([]stream.Event{
		stream.Ins("R", types.NewInt(7), types.NewInt(1)),
		stream.Del("R", types.NewInt(5), types.NewInt(1)),
	}); err != nil {
		t.Fatal(err)
	}
	_, wantRows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	s2, c2 := startDurable(t, sql, Options{WALDir: dir, Recover: true})
	info, replayErrs := s2.Recovery()
	if info == nil {
		t.Fatal("recovered server reports no RecoveryInfo")
	}
	if info.CheckpointGen != 1 || info.Watermark != 2 || info.Replayed != 2 || replayErrs != 0 {
		t.Fatalf("RecoveryInfo = %+v, replayErrs %d; want gen 1, wm 2, replayed 2, errs 0", info, replayErrs)
	}
	_, gotRows, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("recovered rows %v, want %v", gotRows, wantRows)
	}
	for i := range wantRows {
		if strings.Join(gotRows[i], "|") != strings.Join(wantRows[i], "|") {
			t.Fatalf("recovered rows %v, want %v", gotRows, wantRows)
		}
	}
	events, _, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if events != 4 {
		t.Fatalf("recovered event counter = %d, want 4", events)
	}
	// The recovered server keeps ingesting and stays durable.
	if err := c2.Insert("R", types.NewInt(1), types.NewInt(3)); err != nil {
		t.Fatal(err)
	}
}

// TestServerCheckpointRecoverThreshold: a threshold query over
// non-dyadic prices (multiples of 0.1, whose float sums depend on the order
// they are added in) answers bit for bit the same after CHECKPOINT, a
// post-checkpoint tail of inserts and deletes, and a restart with
// recovery: its range sum is a function of the recovered state alone.
func TestServerCheckpointRecoverThreshold(t *testing.T) {
	dir := t.TempDir()
	cat := schema.NewCatalog(schema.NewRelation("bids", "price:float", "volume:float"))
	sql := "select sum(price * volume) from bids where price > 0.25 * (select sum(volume) from bids)"
	_, c := startDurableOn(t, cat, sql, Options{WALDir: dir})
	r := rand.New(rand.NewSource(14))
	var live []types.Tuple
	batch := func(n int) {
		t.Helper()
		var evs []stream.Event
		for len(evs) < n {
			if len(live) > 0 && r.Intn(4) == 0 {
				i := r.Intn(len(live))
				evs = append(evs, stream.Del("bids", live[i]...))
				live = append(live[:i], live[i+1:]...)
				continue
			}
			tp := types.Tuple{types.NewFloat(float64(r.Intn(20000)+1) * 0.1), types.NewFloat(float64(r.Intn(9) + 1))}
			evs = append(evs, stream.Ins("bids", tp...))
			live = append(live, tp)
		}
		if err := c.Batch(evs); err != nil {
			t.Fatal(err)
		}
	}
	batch(300)
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	batch(100)
	_, wantRows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	_, c2 := startDurableOn(t, cat, sql, Options{WALDir: dir, Recover: true})
	_, gotRows, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
		t.Fatalf("recovered rows %v, want %v", gotRows, wantRows)
	}
}

// TestServerRecoverMultiQuery: REGISTERed queries checkpoint alongside
// main and come back registered after recovery without re-registration.
func TestServerRecoverMultiQuery(t *testing.T) {
	dir := t.TempDir()
	sql := "select B, sum(A) from R group by B"
	s, c := startDurable(t, sql, Options{WALDir: dir})
	if err := s.Register("byregion", "select region, sum(amount) from sales group by region"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("sales", types.NewString("emea"), types.NewFloat(2.5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("R", types.NewInt(4), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("sales", types.NewString("apac"), types.NewFloat(1.5)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	_, c2 := startDurable(t, sql, Options{WALDir: dir, Recover: true})
	names, err := c2.Queries()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("recovered queries = %v, want [byregion main]", names)
	}
	_, rows, err := c2.ResultOf("byregion")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("byregion rows = %v, want apac + emea", rows)
	}
}

// TestServerWALDirGuards: a non-empty WAL directory without Recover is
// refused (silent state loss), recovery against different SQL is refused,
// and CHECKPOINT without a WAL directory is a protocol error.
func TestServerWALDirGuards(t *testing.T) {
	dir := t.TempDir()
	sql := "select B, sum(A) from R group by B"
	_, c := startDurable(t, sql, Options{WALDir: dir})
	if err := c.Insert("R", types.NewInt(1), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if _, err := NewWithOptions(sql, durCatalog(), Options{WALDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "prior state") {
		t.Fatalf("non-empty WAL dir without Recover accepted (err %v)", err)
	}
	if _, err := NewWithOptions("select sum(A) from R", durCatalog(),
		Options{WALDir: dir, Recover: true}); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("recovery into mismatched SQL accepted (err %v)", err)
	}

	_, plain := startServer(t, sql)
	if _, _, err := plain.Checkpoint(); err == nil {
		t.Fatal("CHECKPOINT without WAL dir should be a protocol error")
	}
}

// TestServerRecoverRefusesOldContainers: only the current checkpoint
// container version is read. A v2 container ("DBTQ", version 2, no query
// state byte) and a payload without the "DBTQ" magic (the v1 layout: the
// event counter first) were never deployed, and recovery refuses both
// instead of guessing at their layout.
func TestServerRecoverRefusesOldContainers(t *testing.T) {
	v2 := binary.LittleEndian.AppendUint32([]byte(containerMagic), 2)
	v2 = binary.LittleEndian.AppendUint64(v2, 0) // event counter
	v2 = binary.LittleEndian.AppendUint32(v2, 0) // query count
	v1 := binary.LittleEndian.AppendUint64(nil, 0)
	v1 = binary.LittleEndian.AppendUint32(v1, 0)
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"v2", "unsupported checkpoint container version 2", v2},
		{"no-magic", "bad checkpoint container magic", v1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Checkpoint(func(w io.Writer, _ uint64) error {
				_, err := w.Write(tc.payload)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = NewWithOptions("select B, sum(A) from R group by B", durCatalog(),
				Options{WALDir: dir, Recover: true})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("recovery from a %s container: err = %v, want %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestServerAutomaticCheckpoint: with CheckpointEvery set, ingest crosses
// the cadence and a checkpoint appears without an explicit CHECKPOINT.
func TestServerAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sql := "select B, sum(A) from R group by B"
	s, c := startDurable(t, sql, Options{WALDir: dir, CheckpointEvery: 3})
	for i := 0; i < 7; i++ {
		if err := c.Insert("R", types.NewInt(int64(i)), types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Sink().Snapshot()
	if snap.WAL == nil || snap.WAL.Checkpoints != 2 {
		t.Fatalf("automatic checkpoints: WAL stats %+v, want 2 checkpoints", snap.WAL)
	}
	c.Close()

	s2, _ := startDurable(t, sql, Options{WALDir: dir, Recover: true})
	info, _ := s2.Recovery()
	if info.Watermark != 6 || info.Replayed != 1 {
		t.Fatalf("RecoveryInfo = %+v, want watermark 6, replayed 1", info)
	}
}

// TestServerReset: RESET zeroes the ingest counters while leaving query
// state alone; without metrics it is an error.
func TestServerReset(t *testing.T) {
	s, c := startServer(t, "select B, sum(A) from R group by B")
	if err := c.Insert("R", types.NewInt(5), types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	before := s.Sink().Snapshot()
	if before.Events == 0 {
		t.Fatal("expected nonzero ingest count before RESET")
	}
	if err := c.Reset(); err != nil {
		t.Fatalf("RESET: %v", err)
	}
	after := s.Sink().Snapshot()
	if after.Events != 0 {
		t.Fatalf("RESET left Events = %d", after.Events)
	}
	// Query state survives: RESET is observability-only.
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows after RESET = %v", rows)
	}

	s2, err := NewWithOptions("select sum(A) from R", durCatalog(), Options{NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if err := c2.Reset(); err == nil {
		t.Fatal("RESET with metrics disabled should be an error")
	}
}

// TestServerRecoverAuxiliaryMaps runs the durability loop on a query
// combining AVG (sum/count component pair) and a correlated EXISTS
// (auxiliary witness-count maps): checkpoint, post-checkpoint tail with
// deletes that move witness counts, crash, recover — then require the
// recovered engine's full map state to be bitwise identical to the
// pre-crash state (canonical snapshots compare byte for byte).
func TestServerRecoverAuxiliaryMaps(t *testing.T) {
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
	)
	sql := "select B, avg(A) from R where exists (select * from S where S.B = R.B) group by B"
	dir := t.TempDir()

	s, err := NewWithOptions(sql, cat, Options{WALDir: dir})
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

	// The compiled program must actually carry auxiliary maps beyond the
	// AVG result pair — that is what this test protects on recovery.
	prog := mainEngine(t, s).Compiled().Program
	if len(prog.MapOrder) < 3 {
		t.Fatalf("expected AVG pair plus EXISTS witness maps, got maps %v", prog.MapOrder)
	}

	ins := func(rel string, vals ...int64) {
		t.Helper()
		tup := make([]types.Value, len(vals))
		for i, v := range vals {
			tup[i] = types.NewInt(v)
		}
		if err := c.Insert(rel, tup...); err != nil {
			t.Fatal(err)
		}
	}
	ins("R", 5, 1)
	ins("R", 3, 1)
	ins("R", 9, 2)
	ins("S", 1, 10)
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	// Post-checkpoint tail, replayed from the log: witness arrives for
	// group 2, then leaves again, and one AVG contributor is retracted.
	ins("S", 2, 20)
	if err := c.Batch([]stream.Event{
		stream.Del("S", types.NewInt(2), types.NewInt(20)),
		stream.Del("R", types.NewInt(3), types.NewInt(1)),
	}); err != nil {
		t.Fatal(err)
	}
	_, wantRows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := mainEngine(t, s).(engine.Durable).StateSnapshot(&want, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	s2, err := NewWithOptions(sql, cat, Options{WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	info, replayErrs := s2.Recovery()
	if info == nil || replayErrs != 0 {
		t.Fatalf("RecoveryInfo = %+v, replayErrs %d", info, replayErrs)
	}
	var got strings.Builder
	if err := mainEngine(t, s2).(engine.Durable).StateSnapshot(&got, 0); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("recovered map state is not bitwise identical to pre-crash state\npre-crash %d bytes, recovered %d bytes", want.Len(), got.Len())
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	_, gotRows, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("recovered rows %v, want %v", gotRows, wantRows)
	}
	for i := range wantRows {
		if strings.Join(gotRows[i], "|") != strings.Join(wantRows[i], "|") {
			t.Fatalf("recovered rows %v, want %v", gotRows, wantRows)
		}
	}
}
