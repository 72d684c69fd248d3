package wal_test

import (
	"io"
	goruntime "runtime"
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// The replay benchmarks: one body, three readers. Over the same 100k-event
// log, BenchmarkReplay/per-event is the record-at-a-time loop recovery used
// to run (ReplayRange's callback, DecodeEvent, OnEvent), /batched is what it
// runs now (ReplayBatches' admitted batches into engine.ApplyAdmitted), and
// /checkpoint+tail recovers
// from a checkpoint taken 5k events before the end — why checkpoints exist.
// SUITE=registry scripts/bench.sh records them in BENCH_registry.json; the
// numbers are EXPERIMENTS.md's durability and replay tables.

const replayBenchEvents, replayBenchTail = 100_000, 5_000

// replayReader recovers m's directory into e and reports what Recover did.
type replayReader func(m *wal.Manager, e engine.Engine, q *engine.Query) (wal.RecoveryInfo, error)

func restoreInto(e engine.Engine) func(io.Reader) error {
	return func(r io.Reader) error {
		_, err := e.(engine.Durable).StateRestore(r)
		return err
	}
}

func recoverPerEvent(m *wal.Manager, e engine.Engine, _ *engine.Query) (wal.RecoveryInfo, error) {
	return m.Recover(restoreInto(e), func(seq uint64, data []byte) error {
		ev, err := decodeRecord(data)
		if err != nil {
			return err
		}
		return e.OnEvent(ev)
	})
}

func recoverBatched(m *wal.Manager, e engine.Engine, q *engine.Query) (wal.RecoveryInfo, error) {
	return m.RecoverBatches(restoreInto(e), wal.EventSource{Catalog: q.Catalog},
		func(b *wal.Batch) error { return engine.ApplyAdmitted(e, b.Admitted) })
}

func BenchmarkReplay(b *testing.B) {
	b.Run("per-event", func(b *testing.B) { benchmarkReplay(b, 0, recoverPerEvent) })
	b.Run("batched", func(b *testing.B) { benchmarkReplay(b, 0, recoverBatched) })
	b.Run("checkpoint+tail", func(b *testing.B) {
		benchmarkReplay(b, replayBenchEvents-replayBenchTail, recoverBatched)
	})
}

// benchmarkReplay logs replayBenchEvents events (checkpointing after ckptAt
// of them when non-zero), then times reader recovering the directory into a
// fresh engine, b.N times. It reports ns and allocations per event covered.
func benchmarkReplay(b *testing.B, ckptAt int, reader replayReader) {
	t := &testing.T{}
	q := faultQuery(t, "int")
	v := faultVariants()[0] // the single compiled engine
	dir := b.TempDir()
	m, err := wal.Open(dir, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	seedEng, err := v.build(q)
	if err != nil {
		b.Fatal(err)
	}
	rels := []string{"R", "S", "T"}
	var enc []byte
	for i := 0; i < replayBenchEvents; i++ {
		ev := stream.Ins(rels[i%3], types.NewInt(int64(i%50)), types.NewInt(int64((i/3)%50)))
		enc = wal.AppendEventRecord(enc[:0], ev.Relation, true, ev.Args)
		if _, err := m.AppendEncoded([][]byte{enc}); err != nil {
			b.Fatal(err)
		}
		if err := seedEng.OnEvent(ev); err != nil {
			b.Fatal(err)
		}
		if i+1 == ckptAt {
			if _, _, err := m.Checkpoint(seedEng.(engine.Durable).StateSnapshot); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Recover reads what Open discovered; reopen so it sees the checkpoint.
	m.Close()
	if m, err = wal.Open(dir, wal.Options{}); err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	var before, after goruntime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := v.build(q)
		if err != nil {
			b.Fatal(err)
		}
		goruntime.ReadMemStats(&before)
		b.StartTimer()
		info, err := reader(m, e, q)
		b.StopTimer()
		goruntime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if err != nil || info.Watermark+info.Replayed != replayBenchEvents {
			b.Fatalf("recovered %d+%d of %d events: %v", info.Watermark, info.Replayed, replayBenchEvents, err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	events := float64(b.N) * replayBenchEvents
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(mallocs)/events, "allocs/event")
}
