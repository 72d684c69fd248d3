package bakeoff

import (
	"fmt"
	"os"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/wal"
)

// walEngine wraps the compiled engine with write-ahead logging, so the
// bakeoff table shows the price of durable ingest next to the in-memory
// contenders: every delta is encoded and appended (batches in one write)
// before the engine applies it, exactly as dbtserver does.
type walEngine struct {
	engine.Engine
	m   *wal.Manager
	dir string
	buf []byte
}

func newWALEngine(base engine.Engine, parent string) (*walEngine, error) {
	dir, err := os.MkdirTemp(parent, "bakeoff-wal-*")
	if err != nil {
		return nil, err
	}
	m, err := wal.Open(dir, wal.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &walEngine{Engine: base, m: m, dir: dir}, nil
}

func (w *walEngine) Name() string { return "dbtoaster-wal" }

func (w *walEngine) OnEvent(ev stream.Event) error {
	w.buf = wal.AppendEvent(w.buf[:0], ev.Relation, ev.Op == stream.Insert, ev.Args)
	if _, err := w.m.Append(w.buf); err != nil {
		return err
	}
	return w.Engine.OnEvent(ev)
}

func (w *walEngine) OnEventBatch(evs []stream.Event) error {
	datas := make([][]byte, len(evs))
	for i, ev := range evs {
		datas[i] = wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args)
	}
	if _, err := w.m.AppendBatch(datas); err != nil {
		return err
	}
	return w.Engine.OnEventBatch(evs)
}

// remove closes the log and deletes its scratch directory.
func (w *walEngine) remove() {
	w.m.Close()
	os.RemoveAll(w.dir)
}

// buildWALEngine constructs the durable contender: a compiled engine
// whose ingest path runs through a WAL under cfg.WALDir.
func buildWALEngine(cfg Config, q *engine.Query, opts runtime.Options) (*walEngine, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("bakeoff: engine dbtoaster-wal requires Config.WALDir")
	}
	base, err := buildEngine("dbtoaster", q, opts)
	if err != nil {
		return nil, err
	}
	return newWALEngine(base, cfg.WALDir)
}
