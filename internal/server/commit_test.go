package server

import (
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// sortedResult fetches a query result and returns its rows in a canonical
// order, so runs with different arrival interleavings compare equal.
func sortedResult(t *testing.T, c *Client) []string {
	t.Helper()
	_, rows, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	// Insertion sort: tiny row counts, no extra imports.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestConcurrentBatchesGroupCommitAndRecover drives concurrent BATCH
// connections of sizes 1–256 while another connection cycles REGISTER,
// CHECKPOINT and UNREGISTER through the control lane, then restarts from
// the WAL directory. Every acknowledged event is applied exactly once (the
// acked total equals the STATS counter), and the recovered server is
// bitwise equal to the live one for every live query — including a float
// SUM, whose rounding depends on the order additions happen in — so WAL
// order is apply order and no checkpoint captured a watermark covering
// unapplied events. The commit lane has no goroutine of its own: once both
// servers are closed the goroutine count is back where it started.
func TestConcurrentBatchesGroupCommitAndRecover(t *testing.T) {
	goroutines := goruntime.NumGoroutine()
	dir := t.TempDir()
	sql := "select B, sum(A) from R group by B"
	const floatSQL = "select region, sum(amount) from sales group by region"
	sink := metrics.New()
	s, err := NewWithOptions(sql, durCatalog(), Options{WALDir: dir, WALSync: true, Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("f", floatSQL); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	const batches = 12
	var wg sync.WaitGroup
	var acked atomic.Int64
	errs := make(chan error, producers+1)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < batches; i++ {
				n := 1 + (p*97+i*61)%256
				evs := make([]stream.Event, 0, n)
				for k := 0; len(evs) < n; k++ {
					switch k % 3 {
					case 0:
						evs = append(evs, stream.Ins("R", types.NewInt(int64(p+1)), types.NewInt(int64((i+k)%5))))
					case 1:
						evs = append(evs, stream.Del("R", types.NewInt(int64(p+1)), types.NewInt(int64((i+k-1)%5))))
					default:
						amount := float64((p+1)*(i+k)%97)*0.37 + float64(k%7)*1e13
						evs = append(evs, stream.Ins("sales", types.NewString(fmt.Sprintf("r%d", k%4)), types.NewFloat(amount)))
					}
				}
				if err := c.Batch(evs); err != nil {
					errs <- fmt.Errorf("producer %d batch %d: %w", p, i, err)
					return
				}
				acked.Add(int64(n))
			}
		}(p)
	}
	// A control connection races the producers: each registration catches
	// up and swaps in at a definite point of the ingest order, and every
	// checkpoint capture must be consistent. It ends with "q" registered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			if err := c.Register("q", "select sum(A) from R where A > 2"); err != nil {
				errs <- fmt.Errorf("register %d: %w", i, err)
				return
			}
			if _, _, err := c.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
			if i < 2 {
				if err := c.Unregister("q"); err != nil {
					errs <- fmt.Errorf("unregister %d: %w", i, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedResult(t, c)
	wantEvents, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if int64(wantEvents) != acked.Load() {
		t.Errorf("STATS counts %d events, producers were acked for %d", wantEvents, acked.Load())
	}
	live := map[string]string{}
	for _, name := range s.reg.Names() {
		live[name] = snapshotOf(t, queryEngineOf(t, s, name))
	}
	if len(live) != 3 {
		t.Fatalf("live queries %v, want main, f and q", s.reg.Names())
	}

	snap := sink.Snapshot()
	if snap.WAL == nil || snap.WAL.GroupCommits == 0 {
		t.Fatal("no group commits recorded")
	}
	if got := snap.WAL.GroupSize.Count; got != snap.WAL.GroupCommits {
		t.Errorf("group size observations %d != group commits %d", got, snap.WAL.GroupCommits)
	}
	t.Logf("group commits %d, leader hand-offs %d, yields %d",
		snap.WAL.GroupCommits, snap.WAL.LeaderHandoffs, snap.WAL.LeaderYields)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewWithOptions(sql, durCatalog(), Options{WALDir: dir, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedResult(t, c2)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("recovered result differs:\n got %v\nwant %v", got, want)
	}
	gotEvents, _, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if gotEvents != wantEvents {
		t.Errorf("recovered event counter = %d, want %d", gotEvents, wantEvents)
	}
	for name, state := range live {
		if snapshotOf(t, queryEngineOf(t, s2, name)) != state {
			t.Errorf("recovered query %s is not bitwise equal to the live one", name)
		}
	}
	if _, replayErrs := s2.Recovery(); replayErrs != 0 {
		t.Errorf("replay errors = %d, want 0", replayErrs)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", goruntime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdLane makes a control operation lead the commit lane and hold it until
// release is called; the operation then runs then — which may panic — and
// its verdict arrives on the returned channel.
func holdLane(s *Server, then func() error) (release func(), verdict <-chan error) {
	held, gate := make(chan struct{}), make(chan struct{})
	out := make(chan error, 1)
	go func() {
		out <- s.control(func() error {
			close(held)
			<-gate
			return then()
		})
	}()
	<-held
	return func() { close(gate) }, out
}

// waitQueued waits until n requests wait behind the commit lane's leader.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.com.mu.Lock()
		queued := len(s.com.pending)
		s.com.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", queued, n)
		}
	}
}

// snapshotPanicker is a Toaster whose checkpoint snapshot panics while
// armed — a panic inside a commit group, under both server locks.
type snapshotPanicker struct {
	*engine.Toaster
	armed *atomic.Bool
}

func (p snapshotPanicker) StateSnapshot(w io.Writer, watermark uint64) error {
	if p.armed.Load() {
		panic("snapshot boom")
	}
	return p.Toaster.StateSnapshot(w, watermark)
}

// TestCommitLaneSurvivesPanic: the commit lane runs on producers'
// goroutines, where a panic is caught by handleSafe instead of ending the
// process. A control operation or commit group that panics must release
// both server locks and pass leadership on: its own requests are answered
// with an internal error, the request queued behind it is acknowledged,
// and an INSERT from another connection is applied afterwards.
func TestCommitLaneSurvivesPanic(t *testing.T) {
	t.Run("control", func(t *testing.T) {
		s, c := startDurable(t, "select B, sum(A) from R group by B", Options{WALDir: t.TempDir()})
		release, verdict := holdLane(s, func() error { panic("control boom") })
		queued := make(chan error, 1)
		go func() { queued <- c.Insert("R", types.NewInt(1), types.NewInt(1)) }()
		waitQueued(t, s, 1)
		release()
		if err := <-verdict; err == nil || !strings.Contains(err.Error(), "internal error: control boom") {
			t.Fatalf("panicking control op returned %v", err)
		}
		if err := <-queued; err != nil {
			t.Fatalf("insert queued behind the panic: %v", err)
		}
		c2, err := Dial(s.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if err := c2.Insert("R", types.NewInt(2), types.NewInt(1)); err != nil {
			t.Fatalf("insert after the panic: %v", err)
		}
		if events, _, err := c2.Stats(); err != nil || events != 2 {
			t.Fatalf("STATS after the panic: %d events, %v", events, err)
		}
	})
	t.Run("group", func(t *testing.T) {
		var armed atomic.Bool
		s, c := startDurable(t, "select B, sum(A) from R group by B", Options{
			WALDir: t.TempDir(), CheckpointEvery: 1,
			engineBuilder: func(_ string, q *engine.Query) (engine.CompiledEngine, error) {
				tt, err := engine.NewToaster(q, runtime.Options{NoMetrics: true})
				return snapshotPanicker{tt, &armed}, err
			},
		})
		armed.Store(true)
		if err := c.Insert("R", types.NewInt(1), types.NewInt(1)); err == nil || !strings.Contains(err.Error(), "internal error: snapshot boom") {
			t.Fatalf("insert whose group panicked returned %v", err)
		}
		armed.Store(false)
		c2, err := Dial(s.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if err := c2.Insert("R", types.NewInt(2), types.NewInt(1)); err != nil {
			t.Fatalf("insert after the panic: %v", err)
		}
	})
}

// TestCommitLaneShedsBehindSlowLeader: while a leader holds the lane, the
// first request to queue is admitted whatever its size, and the next one
// past MaxPending is shed at once, before it is queued — so a shed request
// never waits and never leads. The admitted request leads the next swap:
// exactly one hand-off.
func TestCommitLaneShedsBehindSlowLeader(t *testing.T) {
	s, c := startDurable(t, "select B, sum(A) from R group by B", Options{WALDir: t.TempDir(), MaxPending: 4})
	evs := make([]stream.Event, 8)
	for i := range evs {
		evs[i] = stream.Ins("R", types.NewInt(int64(i)), types.NewInt(1))
	}
	release, verdict := holdLane(s, func() error { return nil })
	admitted := make(chan error, 1)
	go func() { admitted <- c.Batch(evs) }()
	waitQueued(t, s, 1)

	c2, err := Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	err = c2.Insert("R", types.NewInt(9), types.NewInt(9))
	if err == nil || !strings.Contains(err.Error(), "overloaded: 8 events pending (limit 4)") {
		t.Fatalf("request past the budget behind a busy leader: %v", err)
	}
	waitQueued(t, s, 1) // the shed request was never queued

	release()
	if err := <-verdict; err != nil {
		t.Fatal(err)
	}
	if err := <-admitted; err != nil {
		t.Fatalf("admitted request: %v", err)
	}
	if events, _, err := c2.Stats(); err != nil || events != len(evs) {
		t.Fatalf("STATS: %d events, %v; want only the admitted %d", events, err, len(evs))
	}
	w := s.Sink().Snapshot().WAL
	if w.LeaderHandoffs != 1 {
		t.Errorf("leader hand-offs = %d, want 1 (to the admitted request)", w.LeaderHandoffs)
	}
	if rs := s.Sink().Robust(); rs.ShedRequests.Load() != 1 || rs.ShedEvents.Load() != 1 {
		t.Errorf("shed counters: requests=%d events=%d, want 1 and 1", rs.ShedRequests.Load(), rs.ShedEvents.Load())
	}
}
