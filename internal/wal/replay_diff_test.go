package wal_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// The replay differential: streaming batched replay (ReplayBatches feeding
// each admitted batch to engine.ApplyAdmitted, the catch-up's apply) must
// leave an engine bitwise where the loop it replaced —
// ReplayRange, DecodeEvent, OnEvent, one record at a time — leaves it, over
// random logs that hold everything a real one can: inserts and deletes,
// string keys, records the catalog rejects, lifecycle records between the
// events, records that straddle the reader's chunk boundaries, a torn tail,
// and a writer that is still appending.

func replayDiffCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("orders", "cust:string", "region:string", "amount:float", "qty:int"),
		schema.NewRelation("cust", "cust:string", "tier:int"),
		schema.NewRelation("audit", "who:string", "n:int"),
	)
}

const replayDiffSQL = `select c.tier, o.region, sum(o.amount * o.qty), count(*)
	from orders o, cust c where o.cust = c.cust group by c.tier, o.region`

// replayPerEvent is the reference: the record-at-a-time replay loop the
// server ran before batches, rejections ignored exactly as it ignored them.
func replayPerEvent(m *wal.Manager, eng engine.Engine, after, until uint64) (first, last uint64, err error) {
	return m.ReplayRange(after, until, func(seq uint64, data []byte) error {
		if wal.RecordType(data) >= wal.RecRegister {
			return nil
		}
		ev, err := decodeRecord(data)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		_ = eng.OnEvent(ev)
		return nil
	})
}

// decodeRecord is one event record the old way: DecodeEvent's fresh tuple
// and relation string.
func decodeRecord(data []byte) (stream.Event, error) {
	rel, insert, args, err := wal.DecodeEvent(data)
	op := stream.Delete
	if insert {
		op = stream.Insert
	}
	return stream.Event{Op: op, Relation: rel, Args: args}, err
}

// replayBatched advances cur through the log into eng in admitted batches.
func replayBatched(m *wal.Manager, eng engine.Engine, src wal.EventSource, cur *wal.Cursor, until uint64) (wal.ScanInfo, error) {
	return m.ReplayBatches(cur, until, src, func(b *wal.Batch) error {
		if len(b.Events) > 0 {
			_ = engine.ApplyAdmitted(eng, b.Admitted)
		}
		return nil
	})
}

// randomLogRecords builds n application records: mostly valid events over
// the catalog (deletes retract earlier inserts), some the catalog rejects,
// some on a relation the query has no trigger on, a few with long strings
// (so a log of a few thousand records spans several chunks), and lifecycle
// records sprinkled between them.
func randomLogRecords(r *rand.Rand, n int) [][]byte {
	regions := []string{"emea", "apac", "amer", ""}
	var live []stream.Event
	recs := make([][]byte, 0, n)
	event := func(ev stream.Event) {
		recs = append(recs, wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args))
	}
	for len(recs) < n {
		custName := fmt.Sprintf("c%d", r.Intn(40))
		switch p := r.Intn(100); {
		case p < 4:
			switch r.Intn(3) {
			case 0:
				recs = append(recs, wal.AppendRegister(nil, fmt.Sprintf("q%d", len(recs)), "select 1", uint64(r.Intn(50))))
			case 1:
				recs = append(recs, wal.AppendUnregister(nil, fmt.Sprintf("q%d", len(recs))))
			default:
				recs = append(recs, wal.AppendQuarantine(nil, "q", "because", uint64(len(recs))))
			}
		case p < 10: // rejected by the catalog, each in its own way
			switch r.Intn(5) {
			case 0:
				event(stream.Ins("nowhere", types.NewInt(1)))
			case 1:
				event(stream.Ins("cust", types.NewString(custName)))
			case 2:
				event(stream.Ins("cust", types.NewInt(3), types.NewInt(4)))
			case 3:
				event(stream.Ins("orders", types.NewString(custName), types.Null, types.NewFloat(1), types.NewInt(1)))
			default:
				event(stream.Del("orders", types.NewString(custName), types.NewString("emea"), types.NewFloat(1), types.NewString("1")))
			}
		case p < 20:
			event(stream.Ins("audit", types.NewString(strings.Repeat("x", r.Intn(200))), types.NewInt(int64(len(recs)))))
		case p < 35 && len(live) > 0:
			i := r.Intn(len(live))
			event(stream.Del(live[i].Relation, live[i].Args...))
			live = append(live[:i], live[i+1:]...)
		case p < 55:
			ev := stream.Ins("cust", types.NewString(custName), types.NewInt(int64(r.Intn(4))))
			live = append(live, ev)
			event(ev)
		default:
			region := regions[r.Intn(len(regions))]
			if r.Intn(50) == 0 {
				region = strings.Repeat("r", 20_000+r.Intn(60_000))
			}
			// An int where the column is float: admitted and widened.
			amount := types.NewFloat(float64(r.Intn(1000)) / 4)
			if r.Intn(10) == 0 {
				amount = types.NewInt(int64(r.Intn(100)))
			}
			ev := stream.Ins("orders", types.NewString(custName), types.NewString(region), amount, types.NewInt(int64(1+r.Intn(9))))
			live = append(live, ev)
			event(ev)
		}
	}
	return recs
}

func TestReplayDifferential(t *testing.T) {
	cat := replayDiffCatalog()
	q, err := engine.Prepare(replayDiffSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	// What a catching-up query keeps: relations its program has triggers on.
	keep := func(rel *schema.Relation) bool { return rel.Name != "audit" }
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("toaster/seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			m, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			recs := randomLogRecords(r, 4000)
			early := len(recs) / 2
			for lo := 0; lo < early; lo += 100 {
				if _, err := m.AppendBatch(recs[lo:min(lo+100, early)]); err != nil {
					t.Fatal(err)
				}
			}

			build := func() engine.Engine {
				e, err := engine.NewToaster(q, runtime.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			batched := build()
			src := wal.EventSource{Catalog: cat, Keep: keep}
			var cur wal.Cursor
			var first uint64
			passes := 0
			advance := func(until uint64) {
				t.Helper()
				info, err := replayBatched(m, batched, src, &cur, until)
				if err != nil {
					t.Fatal(err)
				}
				if first == 0 {
					first = info.First
				}
				passes++
			}

			// A writer appends the second half while the batched replay
			// makes its passes, as a registration's catch-up does.
			done := make(chan error, 1)
			go func() {
				for lo := early; lo < len(recs); lo += 37 {
					if _, err := m.AppendBatch(recs[lo:min(lo+37, len(recs))]); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for writing := true; writing; {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					writing = false
				default:
					advance(0)
				}
			}
			// The record in flight when the process died: half of it.
			torn := wal.AppendEventRecord(nil, "cust", true, types.Tuple{types.NewString("torn"), types.NewInt(1)})
			f, err := os.OpenFile(filepath.Join(dir, "wal-00000001.log"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(torn[:len(torn)-5])
			f.Close()
			advance(0)
			if cur.Seq != uint64(len(recs)) {
				t.Fatalf("batched replay stopped at seq %d of %d after %d passes", cur.Seq, len(recs), passes)
			}

			reference := build()
			wantFirst, wantLast, err := replayPerEvent(m, reference, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if first != wantFirst || cur.Seq != wantLast {
				t.Fatalf("batched replay covered %d..%d, per-event %d..%d", first, cur.Seq, wantFirst, wantLast)
			}
			if !bytes.Equal(stateDigest(t, batched), stateDigest(t, reference)) {
				t.Fatalf("state after batched replay (%d passes) differs from per-event replay", passes)
			}

			// A bounded range, as recovery replays a REGISTER record's
			// catch-up: records in (after, until) only.
			after, until := uint64(len(recs)/5), uint64(len(recs)*4/5)
			ranged, rangedRef := build(), build()
			rcur := wal.Cursor{Seq: after}
			info, err := replayBatched(m, ranged, src, &rcur, until)
			if err != nil {
				t.Fatal(err)
			}
			wantFirst, wantLast, err = replayPerEvent(m, rangedRef, after, until)
			if err != nil {
				t.Fatal(err)
			}
			if info.First != wantFirst || info.Last != wantLast || wantLast != until-1 {
				t.Fatalf("ranged batched replay covered %d..%d, per-event %d..%d, asked (%d, %d)",
					info.First, info.Last, wantFirst, wantLast, after, until)
			}
			if !bytes.Equal(stateDigest(t, ranged), stateDigest(t, rangedRef)) {
				t.Fatal("state after ranged batched replay differs from per-event replay")
			}
		})
	}
}

// TestReplayBatchesLifecycleOrder: with Lifecycle set, every record of the
// log is accounted for in order — each lifecycle record delivered with its
// own sequence number, after exactly the events that precede it — and every
// event arrives admitted.
func TestReplayBatchesLifecycleOrder(t *testing.T) {
	cat := replayDiffCatalog()
	m, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	recs := randomLogRecords(rand.New(rand.NewSource(7)), 3000)
	if _, err := m.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	next := uint64(1) // the sequence number the next batch must start at
	events, rejected := 0, 0
	var cur wal.Cursor
	_, err = m.ReplayBatches(&cur, 0, wal.EventSource{Catalog: cat, Lifecycle: true}, func(b *wal.Batch) error {
		if b.First != next {
			return fmt.Errorf("batch starts at seq %d, want %d", b.First, next)
		}
		n := b.Records
		if b.LifecycleSeq != 0 {
			if !bytes.Equal(b.Lifecycle, recs[b.LifecycleSeq-1]) || b.LifecycleSeq != b.Last {
				return fmt.Errorf("lifecycle record %d (batch %d..%d) differs from the log", b.LifecycleSeq, b.First, b.Last)
			}
			n++
		}
		if b.Last != b.First+uint64(n)-1 || len(b.Events) != b.Records-b.Rejected || len(b.Events) > wal.BatchEvents {
			return fmt.Errorf("batch %d..%d: %d records, %d events, %d rejected", b.First, b.Last, b.Records, len(b.Events), b.Rejected)
		}
		for i := b.First; i < b.First+uint64(b.Records); i++ {
			if wal.RecordType(recs[i-1]) >= wal.RecRegister {
				return fmt.Errorf("batch %d..%d holds lifecycle record %d among its events", b.First, b.Last, i)
			}
		}
		// Admitted: stamped with the catalog's ordinal, ints widened to the
		// column's float.
		for _, ev := range b.Events {
			r, ord, _ := cat.Lookup(ev.Relation)
			if b.Catalog != cat || int(ev.Ord) != ord {
				return fmt.Errorf("batch %d..%d: %v stamped %d, want ordinal %d of the source catalog", b.First, b.Last, ev, ev.Ord, ord)
			}
			for i, v := range ev.Args {
				if v.Kind() != r.Columns[i].Type {
					return fmt.Errorf("batch %d..%d: %v column %s is %s, want %s", b.First, b.Last, ev, r.Columns[i].Name, v.Kind(), r.Columns[i].Type)
				}
			}
		}
		events += len(b.Events)
		rejected += b.Rejected
		next = b.Last + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(len(recs))+1 || events == 0 || rejected == 0 {
		t.Fatalf("replay ended at seq %d of %d with %d events, %d rejected", next-1, len(recs), events, rejected)
	}
}
