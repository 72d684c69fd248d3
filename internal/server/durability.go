package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/wal"
)

// Checkpoint container format v3 (the payload inside a wal checkpoint
// file):
//
//	"DBTQ" magic, uint32 version (3)
//	uint64 server event counter
//	uint32 query count
//	per query: uint32 name length, name bytes,
//	           uint32 SQL length, whitespace-normalized SQL bytes,
//	           uint64 from-seq (WAL position before which the query saw
//	           nothing; sharing eligibility compares these),
//	           uint8 state (0 = live, 1 = quarantined), then
//	           live:        uint64 blob length, engine snapshot blob
//	                        (runtime "DBT2")
//	           quarantined: uint32 reason length, reason bytes,
//	                        uint64 last-good WAL sequence (no blob — the
//	                        engine was closed at demotion)
//
// All integers little-endian. Earlier container versions were never
// deployed and are refused, as is a payload without the magic. The SQL
// text rides along
// so recovery can re-register queries beyond "main" and refuse, per query,
// to load state written for different SQL. Queries registered after the
// last checkpoint are restored from their REGISTER WAL records instead;
// quarantines after it, from their QUARANTINE records.

const (
	containerMagic   = "DBTQ"
	containerVersion = 3
	maxContainerStr  = 1 << 20

	qstateLive        = 0
	qstateQuarantined = 1
)

// SQLMismatchError reports a checkpoint whose recorded SQL for one query
// differs from what the running server was configured with. It names the
// query precisely so an operator can tell a renamed query from a changed
// one.
type SQLMismatchError struct {
	Query         string
	CheckpointSQL string
	ConfiguredSQL string
}

func (e *SQLMismatchError) Error() string {
	return fmt.Sprintf("recover query %q: checkpoint SQL %q does not match configured SQL %q",
		e.Query, e.CheckpointSQL, e.ConfiguredSQL)
}

func writeString32(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString32(r io.Reader, what string) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("checkpoint %s length: %w", what, err)
	}
	if n > maxContainerStr {
		return "", fmt.Errorf("checkpoint %s length %d exceeds limit", what, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("checkpoint %s: %w", what, err)
	}
	return string(b), nil
}

func normalSQL(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// writeStateLocked serializes every live query's state — and every
// quarantined query's name, reason, and last-good sequence, so a demotion
// survives the log rotation that would otherwise discard its WAL record —
// into the checkpoint container. Caller holds s.mu.
func (s *Server) writeStateLocked(w io.Writer, watermark uint64) error {
	if _, err := io.WriteString(w, containerMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(containerVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, s.events); err != nil {
		return err
	}
	var keep []engine.QueryInfo
	for _, info := range s.reg.Infos() {
		if info.State == engine.StateLive || info.State == engine.StateQuarantined {
			keep = append(keep, info)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(keep))); err != nil {
		return err
	}
	for _, info := range keep {
		if err := writeString32(w, info.Name); err != nil {
			return err
		}
		if err := writeString32(w, normalSQL(info.SQL)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, info.FromSeq); err != nil {
			return err
		}
		if info.State == engine.StateQuarantined {
			if err := binary.Write(w, binary.LittleEndian, uint8(qstateQuarantined)); err != nil {
				return err
			}
			if err := writeString32(w, info.Reason); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, info.LastGood); err != nil {
				return err
			}
			continue
		}
		if err := binary.Write(w, binary.LittleEndian, uint8(qstateLive)); err != nil {
			return err
		}
		eng, ok := s.reg.Get(info.Name)
		if !ok {
			return fmt.Errorf("query %q vanished during checkpoint", info.Name)
		}
		d, ok := eng.(engine.Durable)
		if !ok {
			return fmt.Errorf("query %q engine does not support snapshots", info.Name)
		}
		var blob bytes.Buffer
		if err := d.StateSnapshot(&blob, watermark); err != nil {
			return fmt.Errorf("query %q snapshot: %w", info.Name, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(blob.Len())); err != nil {
			return err
		}
		if _, err := w.Write(blob.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// restoreState loads a checkpoint container: queries the running server
// already has (boot-installed "main") get their state restored in place
// with a per-query SQL check, the rest are rebuilt and installed in
// registration order — so shared-map ownership re-forms oldest-first, the
// same order it formed live. Only called during construction, before
// Listen.
func (s *Server) restoreState(rd io.Reader) error {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(containerMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("checkpoint container magic: %w", err)
	}
	if string(magic) != containerMagic {
		return fmt.Errorf("bad checkpoint container magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("checkpoint container version: %w", err)
	}
	if version != containerVersion {
		return fmt.Errorf("unsupported checkpoint container version %d", version)
	}
	var events uint64
	if err := binary.Read(br, binary.LittleEndian, &events); err != nil {
		return fmt.Errorf("checkpoint event counter: %w", err)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("checkpoint query count: %w", err)
	}
	restored := map[string]bool{}
	for i := uint32(0); i < n; i++ {
		name, err := readString32(br, "query name")
		if err != nil {
			return err
		}
		sqlText, err := readString32(br, "query SQL")
		if err != nil {
			return err
		}
		var fromSeq uint64
		if err := binary.Read(br, binary.LittleEndian, &fromSeq); err != nil {
			return fmt.Errorf("checkpoint from-seq: %w", err)
		}
		var qstate uint8
		if err := binary.Read(br, binary.LittleEndian, &qstate); err != nil {
			return fmt.Errorf("checkpoint query state: %w", err)
		}
		if qstate == qstateQuarantined {
			reason, err := readString32(br, "quarantine reason")
			if err != nil {
				return err
			}
			var lastGood uint64
			if err := binary.Read(br, binary.LittleEndian, &lastGood); err != nil {
				return fmt.Errorf("checkpoint last-good seq: %w", err)
			}
			restored[name] = true
			if _, ok := s.reg.Get(name); ok {
				// A boot-installed query (e.g. "main") that the checkpoint
				// holds as quarantined: demote the fresh engine in place so
				// the tail replay skips it, exactly as live ingest did.
				if err := s.reg.Quarantine(name, reason, lastGood); err != nil {
					return fmt.Errorf("recover query %q: %w", name, err)
				}
			} else if err := s.reg.InstallQuarantined(name, sqlText, reason, fromSeq, lastGood); err != nil {
				return fmt.Errorf("recover query %q: %w", name, err)
			}
			continue
		}
		var blobLen uint64
		if err := binary.Read(br, binary.LittleEndian, &blobLen); err != nil {
			return fmt.Errorf("checkpoint blob length: %w", err)
		}
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(br, blob); err != nil {
			return fmt.Errorf("checkpoint blob: %w", err)
		}
		restored[name] = true
		if eng, ok := s.reg.Get(name); ok {
			q, _ := s.reg.Query(name)
			if q != nil && normalSQL(q.SQL) != sqlText {
				return &SQLMismatchError{Query: name, CheckpointSQL: sqlText, ConfiguredSQL: normalSQL(q.SQL)}
			}
			d, ok := eng.(engine.Durable)
			if !ok {
				return fmt.Errorf("query %q engine does not support snapshots", name)
			}
			// In-place restore: shared-map borrowers hold byte-identical
			// copies of the owner's blob contents, so clearing and
			// re-filling the adopted instances is idempotent across the
			// queries that share them.
			if _, err := d.StateRestore(bytes.NewReader(blob)); err != nil {
				return fmt.Errorf("recover query %q: %w", name, err)
			}
			s.reg.SetFromSeq(name, fromSeq)
			continue
		}
		if err := s.restoreQuery(name, sqlText, fromSeq, blob); err != nil {
			return err
		}
	}
	// A boot-installed query absent from the container was unregistered
	// before the last checkpoint; replaying the tail into its fresh empty
	// engine would silently resurrect it with the pre-watermark history
	// missing. Refuse, like any other state/configuration mismatch.
	for _, name := range s.reg.Names() {
		if !restored[name] {
			return fmt.Errorf("recover query %q: configured at startup but unregistered before the last checkpoint; start with matching SQL or a fresh WAL directory", name)
		}
	}
	s.events = events
	return nil
}

// restoreQuery rebuilds one checkpointed query the server does not have
// yet: compile, load the snapshot blob into the private engine, install.
func (s *Server) restoreQuery(name, sqlText string, fromSeq uint64, blob []byte) error {
	if err := s.reg.Begin(name, sqlText); err != nil {
		return fmt.Errorf("recover query %q: %w", name, err)
	}
	q, err := engine.Prepare(sqlText, s.cat)
	if err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover query %q: %w", name, err)
	}
	ropts := runtime.Options{Metrics: s.sink, MetricsLabel: name}
	tmp, err := s.buildEngine(name, q)
	if err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover query %q: %w", name, err)
	}
	d, ok := tmp.(engine.Durable)
	if !ok {
		s.reg.Abort(name)
		return fmt.Errorf("query %q engine does not support snapshots", name)
	}
	if _, err := d.StateRestore(bytes.NewReader(blob)); err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover query %q: %w", name, err)
	}
	if _, err := s.reg.Install(name, q, tmp, fromSeq, ropts); err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover query %q: %w", name, err)
	}
	return nil
}

// catchUp is one query's replay from the retained log into its private
// engine: the cursor it has read to, which lets every pass after the first —
// and the final drain under the control lane — start where the previous one
// stopped, and the totals the registration's log record reports.
type catchUp struct {
	eng engine.CompiledEngine
	src wal.EventSource
	cur wal.Cursor
	qs  *metrics.QueryStats

	first          uint64 // first record seen (0: none yet)
	passes         int
	records, bytes uint64
	rejected       int
}

// newCatchUp prepares the replay of records past after into eng. Only
// events of relations eng's program has a trigger on are decoded; the rest
// of the log is read past.
func (s *Server) newCatchUp(name string, eng engine.CompiledEngine, after uint64) *catchUp {
	triggered := map[*schema.Relation]bool{}
	for _, t := range eng.Compiled().Program.Triggers {
		if r, ok := s.cat.Relation(t.Relation); ok && len(t.Stmts) > 0 {
			triggered[r] = true
		}
	}
	c := &catchUp{eng: eng, cur: wal.Cursor{Seq: after}}
	c.src = wal.EventSource{Catalog: s.cat, Keep: func(r *schema.Relation) bool { return triggered[r] }}
	if s.sink != nil {
		c.qs = s.sink.Query(name)
	}
	return c
}

// advance replays what the log holds past the cursor (before until, when
// non-zero) and returns how many records that was. Batches hold only events
// the catalog admits, applied as admitted, so the engine ends where
// record-by-record OnEvent calls would leave it; an engine failure is
// counted, as a rejection is, and the replay goes on — exactly what live
// ingest does with a logged event.
func (c *catchUp) advance(log *wal.Manager, until uint64) (uint64, error) {
	info, err := log.ReplayBatches(&c.cur, until, c.src, func(b *wal.Batch) error {
		if len(b.Events) > 0 && engine.ApplyAdmitted(c.eng, b.Admitted) != nil {
			c.rejected++
		}
		c.rejected += b.Rejected
		if c.qs != nil {
			c.qs.CatchupEvents.Add(int64(b.Records))
		}
		return nil
	})
	if c.first == 0 {
		c.first = info.First
	}
	c.passes++
	c.records += info.Records
	c.bytes += info.Bytes
	return info.Records, err
}

// runRecovery rebuilds server state from the WAL directory: checkpoint
// restore, then idempotent replay of the log tail through the live ingest
// path — batches of events fan out to every live query through
// Registry.OnEventBatch. REGISTER records rebuild the query exactly as the
// live registration did (private engine, nested replay of the records it
// had caught up on, install); UNREGISTER records remove it again.
// Engine-level apply errors during replay are counted, not fatal.
func (s *Server) runRecovery() (wal.RecoveryInfo, error) {
	src := wal.EventSource{Catalog: s.cat, Lifecycle: true}
	return s.wal.RecoverBatches(s.restoreState, src, func(b *wal.Batch) error {
		if len(b.Events) > 0 && s.reg.ApplyAdmitted(b.Admitted) != nil {
			s.replayErrs++
		}
		s.replayErrs += uint64(b.Rejected)
		s.events += uint64(b.Records)
		if b.LifecycleSeq == 0 {
			return nil
		}
		return s.recoverLifecycle(b.LifecycleSeq, b.Lifecycle)
	})
}

// recoverLifecycle replays one REGISTER, UNREGISTER or QUARANTINE record.
func (s *Server) recoverLifecycle(seq uint64, data []byte) error {
	switch wal.RecordType(data) {
	case wal.RecRegister:
		name, sqlText, fromSeq, err := wal.DecodeRegister(data)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		return s.recoverRegister(name, sqlText, fromSeq, seq)
	case wal.RecQuarantine:
		name, reason, lastGood, err := wal.DecodeQuarantine(data)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		if qerr := s.reg.Quarantine(name, reason, lastGood); qerr != nil {
			// Deterministic replay (a size-quota breach re-fires at
			// the same position) may have demoted the query already,
			// or a newer checkpoint no longer holds it: no-op, like a
			// rejected event.
			s.replayErrs++
		}
		return nil
	case wal.RecUnregister:
		name, err := wal.DecodeUnregister(data)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		if rerr := s.reg.Remove(name); rerr != nil {
			// Removal of a query a newer checkpoint no longer holds
			// replays as a no-op, like a rejected event.
			s.replayErrs++
			return nil
		}
		if s.sink != nil {
			s.sink.DropLabel(name)
		}
		return nil
	}
	return fmt.Errorf("wal record %d: unknown record type %d", seq, wal.RecordType(data))
}

// recoverRegister replays one REGISTER record: the query goes live having
// seen exactly the records in (fromSeq, recordSeq), which is what the
// original registration's catch-up covered — the outer recovery loop then
// feeds it the rest of the tail like any live query. Exactly-once: a
// record at or before the checkpoint watermark is never replayed (the
// checkpoint already holds the query), and one after it always is.
func (s *Server) recoverRegister(name, sqlText string, fromSeq, recordSeq uint64) error {
	if _, ok := s.reg.Get(name); ok {
		// Already present (e.g. a crash between the WAL record and the
		// checkpoint that captured it was recovered twice): re-registering
		// is a no-op, like a rejected event.
		s.replayErrs++
		return nil
	}
	if err := s.reg.Begin(name, sqlText); err != nil {
		return fmt.Errorf("recover register %q: %w", name, err)
	}
	q, err := engine.Prepare(sqlText, s.cat)
	if err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover register %q: %w", name, err)
	}
	ropts := runtime.Options{Metrics: s.sink, MetricsLabel: name}
	tmp, err := s.buildEngine(name, q)
	if err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover register %q: %w", name, err)
	}
	cu := s.newCatchUp(name, tmp, fromSeq)
	_, err = cu.advance(s.wal, recordSeq)
	s.catchupBytes += cu.bytes
	if err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover register %q: %w", name, err)
	}
	if _, err := s.reg.Install(name, q, tmp, fromSeq, ropts); err != nil {
		s.reg.Abort(name)
		return fmt.Errorf("recover register %q: %w", name, err)
	}
	return nil
}

// maybeCheckpointLocked takes an automatic checkpoint when the configured
// event cadence has elapsed. Caller holds s.mu.
func (s *Server) maybeCheckpointLocked(applied int) error {
	if s.wal == nil || s.ckptEvery == 0 {
		return nil
	}
	s.sinceCkpt += uint64(applied)
	if s.sinceCkpt < s.ckptEvery {
		return nil
	}
	_, _, err := s.checkpointLocked()
	return err
}

func (s *Server) checkpointLocked() (gen, watermark uint64, err error) {
	if s.wal == nil {
		return 0, 0, fmt.Errorf("durability disabled (no WAL directory)")
	}
	gen, watermark, err = s.wal.Checkpoint(s.writeStateLocked)
	if err == nil {
		s.sinceCkpt = 0
	}
	return gen, watermark, err
}

// Checkpoint captures all query state through the current WAL watermark
// and rotates the log. Exposed over the protocol as CHECKPOINT. It takes
// the ingest lock before the server lock (the order the commit lane uses):
// a commit group's WAL append and engine application are atomic with
// respect to the checkpoint, so the captured watermark never covers
// events the engines have not applied — recovery would skip those
// sequence numbers and lose them.
func (s *Server) Checkpoint() (gen, watermark uint64, err error) {
	s.ingest.Lock()
	defer s.ingest.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// Recovery returns the recovery summary when the server was started with
// Recover (nil otherwise), plus the count of records the engines rejected
// during replay.
func (s *Server) Recovery() (*wal.RecoveryInfo, uint64) {
	return s.recovery, s.replayErrs
}
