package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// The fault matrix drives the full durability loop — WAL append before
// engine apply, periodic checkpoints — and crashes it at every failpoint
// the loop reaches, with every interesting torn-write split. After each
// crash the directory is recovered into a fresh engine, which must hold
// state bitwise identical to an uninterrupted run over some event prefix
// no shorter than what was acknowledged; the run then resumes and must
// converge on the uninterrupted final state.

// A faultVariant is one physical layout the matrix runs over: the fault
// query's columns are col, so "int" packs every keyed map and "float"
// leaves every map in the generic layout. The int events are widened to
// float at admission, live and in replay alike, so both variants log and
// checkpoint the same number of bytes.
type faultVariant struct {
	name string
	col  string
}

func faultVariants() []faultVariant {
	return []faultVariant{{"single", "int"}, {"generic", "float"}}
}

func (faultVariant) build(q *engine.Query) (engine.Engine, error) {
	return engine.NewToaster(q, runtime.Options{})
}

func faultQuery(t *testing.T, col string) *engine.Query {
	t.Helper()
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:"+col, "B:"+col),
		schema.NewRelation("S", "B:"+col, "C:"+col),
		schema.NewRelation("T", "C:"+col, "D:"+col),
	)
	q, err := engine.Prepare("select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C", cat)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return q
}

// faultEvents is a deterministic insert/delete mix over small domains, so
// checkpoints capture joins mid-flight and deletes exercise negative
// deltas.
func faultEvents(n int) []stream.Event {
	r := rand.New(rand.NewSource(99))
	rels := []string{"R", "S", "T"}
	evs := make([]stream.Event, 0, n)
	var live []stream.Event
	for len(evs) < n {
		if len(live) > 4 && r.Intn(4) == 0 {
			i := r.Intn(len(live))
			ins := live[i]
			live = append(live[:i], live[i+1:]...)
			evs = append(evs, stream.Del(ins.Relation, ins.Args...))
			continue
		}
		rel := rels[r.Intn(len(rels))]
		ev := stream.Ins(rel, types.NewInt(int64(r.Intn(5))), types.NewInt(int64(r.Intn(5))))
		live = append(live, ev)
		evs = append(evs, ev)
	}
	return evs
}

// stateDigest is the bitwise state of an engine: its snapshot blob at a
// fixed watermark (snapshots sort entries, so equal state means equal
// bytes).
func stateDigest(t *testing.T, e engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.(engine.Durable).StateSnapshot(&buf, 0); err != nil {
		t.Fatalf("StateSnapshot: %v", err)
	}
	return buf.Bytes()
}

// referenceDigests runs the uninterrupted scenario, returning the state
// digest after every event prefix (index i = first i events applied).
func referenceDigests(t *testing.T, v faultVariant, q *engine.Query, evs []stream.Event) [][]byte {
	t.Helper()
	e, err := v.build(q)
	if err != nil {
		t.Fatalf("%s: build: %v", v.name, err)
	}
	digests := make([][]byte, 0, len(evs)+1)
	digests = append(digests, stateDigest(t, e))
	for _, ev := range evs {
		if err := e.OnEvent(ev); err != nil {
			t.Fatalf("%s: OnEvent: %v", v.name, err)
		}
		digests = append(digests, stateDigest(t, e))
	}
	return digests
}

// runDurable feeds evs through the WAL-before-apply loop with a
// checkpoint every ckptEvery acknowledged events. It returns how many
// events were fully acknowledged and whether an injected crash ended the
// run. Any non-crash error is fatal.
func runDurable(t *testing.T, dir string, v faultVariant, q *engine.Query,
	evs []stream.Event, ckptEvery int, fp wal.FailpointFn) (acked int, crashed bool) {
	t.Helper()
	m, err := wal.Open(dir, wal.Options{Failpoint: fp})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	e, err := v.build(q)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	d := e.(engine.Durable)
	for _, ev := range evs {
		rec := wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args)
		if _, err := m.Append(rec); err != nil {
			if errors.Is(err, wal.ErrInjectedCrash) {
				return acked, true
			}
			t.Fatalf("Append: %v", err)
		}
		if err := e.OnEvent(ev); err != nil {
			t.Fatalf("OnEvent: %v", err)
		}
		acked++
		if ckptEvery > 0 && acked%ckptEvery == 0 {
			if _, _, err := m.Checkpoint(d.StateSnapshot); err != nil {
				if errors.Is(err, wal.ErrInjectedCrash) {
					return acked, true
				}
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	return acked, false
}

// recoverDir rebuilds an engine from the WAL directory, returning the
// engine (caller closes), the live manager (caller closes), and how many
// events the recovered state covers.
func recoverDir(t *testing.T, dir string, v faultVariant, q *engine.Query) (engine.Engine, *wal.Manager, int) {
	t.Helper()
	m, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e, err := v.build(q)
	if err != nil {
		t.Fatalf("build for recovery: %v", err)
	}
	d := e.(engine.Durable)
	// The path the server recovers through: the tail in batches, handed to
	// the engine whole.
	info, err := m.RecoverBatches(
		func(r io.Reader) error {
			_, err := d.StateRestore(r)
			return err
		},
		wal.EventSource{Catalog: q.Catalog},
		func(b *wal.Batch) error { return e.OnEventBatch(b.Events) })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return e, m, int(info.Watermark + info.Replayed)
}

// crashPoint is one matrix cell: crash at the idx-th failpoint firing,
// leaving split bytes of that write on disk.
type crashPoint struct {
	idx   int
	name  string
	split int
}

// enumerateCrashPoints runs the scenario once without crashing, recording
// every failpoint the loop reaches, then expands write points into their
// torn-write splits (nothing written, half written, fully written but
// unacknowledged).
func enumerateCrashPoints(t *testing.T, v faultVariant, q *engine.Query,
	evs []stream.Event, ckptEvery int) []crashPoint {
	t.Helper()
	var fired []wal.Failpoint
	acked, crashed := runDurable(t, t.TempDir(), v, q, evs, ckptEvery,
		func(fp wal.Failpoint) int {
			fired = append(fired, fp)
			return -1
		})
	if crashed || acked != len(evs) {
		t.Fatalf("counting pass: acked %d/%d, crashed %v", acked, len(evs), crashed)
	}
	var points []crashPoint
	for i, fp := range fired {
		splits := []int{0}
		if fp.Len > 1 {
			splits = append(splits, fp.Len/2, fp.Len)
		} else if fp.Len == 1 {
			splits = append(splits, 1)
		}
		for _, s := range splits {
			points = append(points, crashPoint{idx: i, name: fp.Name, split: s})
		}
	}
	return points
}

// TestCrashRecoveryFaultMatrix is the durability proof: for every engine
// variant, every crash point, and every torn-write split, recovery must
// reconstruct a state bitwise identical to the uninterrupted run at some
// prefix >= the acknowledged events, and resuming the stream must land on
// the uninterrupted final state.
func TestCrashRecoveryFaultMatrix(t *testing.T) {
	const nEvents, ckptEvery = 12, 5
	evs := faultEvents(nEvents)
	for _, v := range faultVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			q := faultQuery(t, v.col)
			e, err := v.build(q)
			if err != nil {
				t.Fatal(err)
			}
			generic := 0
			stats := e.(*engine.Toaster).MapStats()
			for _, st := range stats {
				if st.Layout == "generic" {
					generic++
				}
			}
			if wantAll := v.col != "int"; wantAll != (generic == len(stats)) {
				t.Fatalf("%s: %d of %d maps generic", v.name, generic, len(stats))
			}
			refs := referenceDigests(t, v, q, evs)
			points := enumerateCrashPoints(t, v, q, evs, ckptEvery)
			if len(points) < nEvents {
				t.Fatalf("enumerated only %d crash points", len(points))
			}
			t.Logf("%s: %d crash-point/split cells", v.name, len(points))
			for _, cp := range points {
				cp := cp
				t.Run(fmt.Sprintf("%s@%d+%d", cp.name, cp.idx, cp.split), func(t *testing.T) {
					dir := t.TempDir()
					calls := 0
					acked, crashed := runDurable(t, dir, v, q, evs, ckptEvery,
						func(fp wal.Failpoint) int {
							calls++
							if calls-1 == cp.idx {
								return cp.split
							}
							return -1
						})
					if !crashed {
						t.Fatalf("failpoint %d never fired (acked %d)", cp.idx, acked)
					}

					e, m, recovered := recoverDir(t, dir, v, q)
					defer m.Close()
					if recovered < acked || recovered > len(evs) {
						t.Fatalf("recovered %d events, acknowledged %d of %d", recovered, acked, len(evs))
					}
					if got := stateDigest(t, e); !bytes.Equal(got, refs[recovered]) {
						t.Fatalf("recovered state differs from uninterrupted run at prefix %d\nrecovered: %x\nreference: %x",
							recovered, got, refs[recovered])
					}

					// Resume the stream through the recovered log+engine.
					for _, ev := range evs[recovered:] {
						rec := wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args)
						if _, err := m.Append(rec); err != nil {
							t.Fatalf("resumed Append: %v", err)
						}
						if err := e.OnEvent(ev); err != nil {
							t.Fatalf("resumed OnEvent: %v", err)
						}
					}
					if got := stateDigest(t, e); !bytes.Equal(got, refs[len(evs)]) {
						t.Fatalf("resumed state differs from uninterrupted final state")
					}
				})
			}
		})
	}
}

// TestDoubleCrashRecovery crashes, recovers, and crashes again during the
// resumed run's checkpoint, proving recovery composes: the second
// recovery still lands on a valid prefix.
func TestDoubleCrashRecovery(t *testing.T) {
	const nEvents = 12
	q := faultQuery(t, "int")
	evs := faultEvents(nEvents)
	v := faultVariants()[0]
	refs := referenceDigests(t, v, q, evs)
	dir := t.TempDir()

	// First run: crash on the checkpoint rename after 5 events.
	acked, crashed := runDurable(t, dir, v, q, evs, 5, func(fp wal.Failpoint) int {
		if fp.Name == "ckpt.rename" {
			return 0
		}
		return -1
	})
	if !crashed || acked != 5 {
		t.Fatalf("first run: acked %d, crashed %v; want 5, true", acked, crashed)
	}

	// Second run: recover, resume, crash torn mid-append two events later.
	e, m, recovered := recoverDir(t, dir, v, q)
	if recovered != 5 {
		t.Fatalf("first recovery covers %d events, want 5", recovered)
	}
	fed := 0
	for _, ev := range evs[recovered:] {
		rec := wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args)
		if fed == 2 {
			// Hand-tear the append: write half the record directly, then
			// abandon the manager as a crash would.
			break
		}
		if _, err := m.Append(rec); err != nil {
			t.Fatalf("resume Append: %v", err)
		}
		if err := e.OnEvent(ev); err != nil {
			t.Fatalf("resume OnEvent: %v", err)
		}
		fed++
	}
	m.Close()

	// Third run: recover again; state must match the 7-event prefix.
	e2, m2, recovered2 := recoverDir(t, dir, v, q)
	defer m2.Close()
	if recovered2 != 7 {
		t.Fatalf("second recovery covers %d events, want 7", recovered2)
	}
	if got := stateDigest(t, e2); !bytes.Equal(got, refs[7]) {
		t.Fatalf("second recovery state differs from reference prefix 7")
	}
}
