package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbtoaster/internal/metrics"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// appendSized appends n records of size bytes each (the record's index in
// its first bytes) and returns them.
func appendSized(t *testing.T, m *Manager, n, size int) [][]byte {
	t.Helper()
	datas := make([][]byte, n)
	for i := range datas {
		datas[i] = bytes.Repeat([]byte{byte(i)}, size)
		copy(datas[i], fmt.Sprintf("%d|", i))
	}
	if _, err := m.AppendBatch(datas); err != nil {
		t.Fatal(err)
	}
	return datas
}

// TestReplayRangeStopsAtUntil is the regression test for ReplayRange
// filtering on until but reading (and checksumming) the log to its end: a
// range that ends near the start of a multi-chunk log must read one chunk.
func TestReplayRangeStopsAtUntil(t *testing.T) {
	st := &metrics.WALStats{}
	m := mustOpen(t, t.TempDir(), Options{Stats: st})
	appendSized(t, m, 5000, 1000) // ≈ 5 chunks
	var seqs []uint64
	first, last, err := m.ReplayRange(2, 10, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil || first != 3 || last != 9 || len(seqs) != 7 {
		t.Fatalf("ReplayRange(2, 10) = (%d, %d, %v) over %v; want 3..9", first, last, err, seqs)
	}
	if got := st.ReplayBytes.Load(); got > chunkSize {
		t.Fatalf("ReplayRange(2, 10) read %d bytes of a %d-byte log; want at most one %d-byte chunk",
			got, 5000*(1000+recHdrLen+8), chunkSize)
	}
	if got := st.ReplayRecords.Load(); got != 9 {
		t.Fatalf("ReplayRange(2, 10) checksummed %d records, want 9", got)
	}
}

// TestRecordsAcrossChunkBoundaries: records that straddle the reader's
// chunk boundaries, and one larger than a chunk, come back intact from
// every reader of the log — Open's scan, Recover, ReplayRange.
func TestRecordsAcrossChunkBoundaries(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	want := appendSized(t, m, 700, 3001) // 2.1 MB: boundaries fall mid-record
	big := bytes.Repeat([]byte("0123456789abcdef"), (chunkSize+4096)/16)
	if _, err := m.Append(big); err != nil {
		t.Fatal(err)
	}
	want = append(want, big)
	want = append(want, appendSized(t, m, 50, 77)...)
	m.Close()

	m2 := mustOpen(t, dir, Options{})
	if got := m2.LastSeq(); got != uint64(len(want)) {
		t.Fatalf("LastSeq after reopen = %d, want %d", got, len(want))
	}
	_, seqs, datas := replayAll(t, m2)
	if len(datas) != len(want) {
		t.Fatalf("Recover delivered %d records, want %d", len(datas), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(datas[i], want[i]) {
			t.Fatalf("record %d: seq %d, %d bytes; want seq %d, %d bytes", i, seqs[i], len(datas[i]), i+1, len(want[i]))
		}
	}
	n := 0
	if _, _, err := m2.ReplayRange(0, 0, func(seq uint64, data []byte) error {
		if !bytes.Equal(data, want[seq-1]) {
			return fmt.Errorf("record %d differs", seq)
		}
		n++
		return nil
	}); err != nil || n != len(want) {
		t.Fatalf("ReplayRange delivered %d of %d records: %v", n, len(want), err)
	}
}

// TestCursorResumes: a second scan over the same cursor reads only what was
// appended since the first, a half-written record holds the cursor in front
// of it until it is whole, and rotation carries the cursor into the next
// segment.
func TestCursorResumes(t *testing.T) {
	dir := t.TempDir()
	st := &metrics.WALStats{}
	m := mustOpen(t, dir, Options{Stats: st})
	appendSized(t, m, 300, 500)
	var cur Cursor
	var got []uint64
	visit := func(seq uint64, _ []byte) error { got = append(got, seq); return nil }
	scan := func() uint64 {
		t.Helper()
		before := st.ReplayBytes.Load()
		if _, err := m.scan(&cur, 0, visit); err != nil {
			t.Fatal(err)
		}
		return st.ReplayBytes.Load() - before
	}
	scan()
	if len(got) != 300 || cur.Seq != 300 {
		t.Fatalf("first scan delivered %d records, cursor at seq %d", len(got), cur.Seq)
	}
	if n := scan(); n != 0 || len(got) != 300 {
		t.Fatalf("scan of an unchanged log read %d bytes, delivered %d records", n, len(got)-300)
	}

	// A record the writer has only half written: the scan stops in front of
	// it, and delivers it once the rest arrives.
	rec := appendRecord(nil, 301, []byte("late record"))
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	off := cur.Off
	if scan(); len(got) != 300 || cur.Off != off {
		t.Fatalf("scan advanced past a half-written record: %d records, offset %d → %d", len(got), off, cur.Off)
	}
	if _, err := f.Write(rec[len(rec)/2:]); err != nil {
		t.Fatal(err)
	}
	if n := scan(); len(got) != 301 || n != uint64(len(rec)) {
		t.Fatalf("scan after the record completed: %d records, %d bytes read (record is %d)", len(got), n, len(rec))
	}

	// The append above bypassed the manager; bring its counter along, then
	// rotate and append into the next generation.
	m.seq = 301
	if _, _, err := m.Checkpoint(func(io.Writer, uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	appendSized(t, m, 5, 40)
	if scan(); len(got) != 306 || cur.Gen != 2 || cur.Seq != 306 {
		t.Fatalf("scan across a rotation: %d records, cursor %+v", len(got), cur)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d", i, seq)
		}
	}
}

func replayCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("bids", "t:float", "id:int", "broker:int", "price:float", "volume:float"),
		schema.NewRelation("names", "id:int", "name:string"),
	)
}

// TestReplayBatchesAllocBudget is the replay counterpart of the ingest
// path's allocation budgets: a log of int and float columns replays in
// batches at a small fraction of an allocation per event — the value slab
// and little else per 256 events — where record-by-record DecodeEvent paid
// about five per event.
func TestReplayBatchesAllocBudget(t *testing.T) {
	m := mustOpen(t, t.TempDir(), Options{})
	const n = 64 * BatchEvents
	var enc []byte
	for i := 0; i < n; i++ {
		enc = AppendEventRecord(enc, "bids", i%3 != 0, types.Tuple{
			types.NewFloat(float64(i)), types.NewInt(int64(i)), types.NewInt(int64(i % 9)),
			types.NewFloat(100 + float64(i%50)), types.NewFloat(float64(1 + i%7))})
	}
	if _, err := m.AppendEncoded([][]byte{enc}); err != nil {
		t.Fatal(err)
	}
	src := EventSource{Catalog: replayCatalog()}
	events := 0
	allocs := testing.AllocsPerRun(5, func() {
		events = 0
		var cur Cursor
		if _, err := m.ReplayBatches(&cur, 0, src, func(b *Batch) error {
			events += len(b.Events)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if events != n {
		t.Fatalf("replayed %d events, want %d", events, n)
	}
	if perEvent := allocs / n; perEvent > 0.02 {
		t.Fatalf("batched replay: %.4f allocs/event (%.0f per pass of %d events), budget 0.02", perEvent, allocs, n)
	} else {
		t.Logf("batched replay: %.4f allocs/event", perEvent)
	}
}

// FuzzDecodeEventInto: the slab decoder never panics, accepts and rejects
// exactly what DecodeEvent does, and yields the same event value for value
// — strings, NULL and the -0.0 and NaN canonicalizations included — with
// the arguments appended to the caller's slab and nothing before them
// touched.
func FuzzDecodeEventInto(f *testing.F) {
	f.Add(AppendEvent(nil, "names", true, types.Tuple{types.NewInt(1), types.NewString("x")}))
	f.Add(AppendEvent(nil, "bids", false, types.Tuple{types.NewFloat(2.5), types.Null, types.NewBool(true)}))
	f.Add(AppendEvent(nil, "NAMES", true, nil))
	f.Add(AppendEvent(nil, "nowhere", true, types.Tuple{types.NewInt(7)}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 'R', 'S', byte(types.KindFloat), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // NaN → NULL
	f.Add([]byte{0, 1, 0, 0, 0, 'R', byte(types.KindFloat), 0, 0, 0, 0, 0, 0, 0, 0x80})         // -0.0 → +0.0
	cat := replayCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, insert, args, err := DecodeEvent(data)
		guard := types.NewString("guard")
		rc := RelationCache{Catalog: cat}
		for round := 0; round < 2; round++ { // the second round hits the relation cache
			ev, slab, ierr := DecodeEventInto([]types.Value{guard}, data, &rc)
			if (err == nil) != (ierr == nil) {
				t.Fatalf("DecodeEvent err = %v, DecodeEventInto err = %v", err, ierr)
			}
			if slab[0] != guard {
				t.Fatal("DecodeEventInto overwrote the slab's earlier values")
			}
			if err != nil {
				if len(slab) != 1 {
					t.Fatalf("failed decode left %d values in the slab", len(slab)-1)
				}
				continue
			}
			wantRel := rel
			if r, ok := cat.Relation(rel); ok {
				wantRel = r.Name
			}
			if ev.Relation != wantRel || (ev.Op == stream.Insert) != insert || !ev.Args.Equal(args) {
				t.Fatalf("DecodeEventInto = %v, DecodeEvent = %s %v %v", ev, rel, insert, args)
			}
			if len(slab) != 1+len(args) || cap(ev.Args) != len(ev.Args) {
				t.Fatalf("slab holds %d values for %d args; Args capacity %d", len(slab)-1, len(args), cap(ev.Args))
			}
		}
	})
}
