package wal

import (
	"fmt"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Batched replay: the log read back in the shape live ingest has — up to
// BatchEvents events over one value slab, ready for OnEventBatch — instead
// of one decoded record at a time.

// BatchEvents bounds the events of one replay batch: the size of the
// BATCH 256 request the ingest path is tuned for.
const BatchEvents = 256

// EventSource says how a scan's records become batches.
type EventSource struct {
	// Catalog resolves relation names and admits events: a record the
	// catalog rejects (unknown relation, wrong arity, a value of the wrong
	// kind) is counted in Batch.Rejected and never reaches Events, which is
	// the outcome of offering it to an engine alone. An admitted event is
	// stamped with its relation's ordinal and has its ints widened where the
	// column is float, so a batch is a stream.Admitted over Catalog: applying
	// it whole equals applying its records one by one.
	Catalog *schema.Catalog
	// Keep, when non-nil, selects the relations whose events are wanted;
	// the others are passed over before their arguments are decoded.
	Keep func(*schema.Relation) bool
	// Lifecycle delivers REGISTER, UNREGISTER and QUARANTINE records, each
	// ending the batch of the events before it; when false they are passed
	// over.
	Lifecycle bool
}

// Batch is a run of consecutive log records decoded for replay.
type Batch struct {
	// Admitted holds the admitted events, in log order, and the catalog that
	// admitted them. Their Args share one slab that the next batch
	// overwrites: like the Events slice itself, they are valid during apply
	// only, and an engine copies what it keeps.
	stream.Admitted
	// First and Last are the sequence numbers of the first and last records
	// the batch covers, passed-over ones included.
	First, Last uint64
	// Records counts the event records covered; Rejected those of them the
	// catalog does not admit.
	Records, Rejected int
	// Lifecycle is the lifecycle record that follows Events in the log, and
	// LifecycleSeq its sequence number; zero when the batch ended for size
	// or with the scan.
	Lifecycle    []byte
	LifecycleSeq uint64

	slab []types.Value
}

// ReplayBatches scans the log from cur like ReplayRange — records past
// cur.Seq and, when until is non-zero, before until — decoding event records
// into batches handed to apply in log order. One Batch is reused, slab
// included: it is valid during apply only. When apply fails, where cur is
// left is unspecified.
//
// The reader runs on the caller's goroutine. Reading, checksumming and
// decoding one batch ahead of apply on a goroutine of their own was
// measured and lost (EXPERIMENTS.md, "Replay is ingest"): a hand-off per
// 256 events costs more than the overlap wins on two cores that the
// collector also wants.
func (m *Manager) ReplayBatches(cur *Cursor, until uint64, src EventSource, apply func(*Batch) error) (ScanInfo, error) {
	r := batchReader{src: src, apply: apply, rc: RelationCache{Catalog: src.Catalog}}
	r.b.Catalog = src.Catalog
	info, err := m.scan(cur, until, r.add)
	if err == nil && r.b.First != 0 {
		err = apply(&r.b)
	}
	return info, err
}

// batchReader turns a scan's records into batches.
type batchReader struct {
	src   EventSource
	apply func(*Batch) error
	b     Batch
	rc    RelationCache
	keep  bool // src.Keep's verdict on rc.last
}

// emit hands the batch to apply and starts the next one over the same
// slab; a slab that append grew for wide events stays grown.
func (r *batchReader) emit() error {
	b := &r.b
	if err := r.apply(b); err != nil {
		return err
	}
	*b = Batch{Admitted: stream.Admitted{Catalog: b.Catalog, Events: b.Events[:0]}, Lifecycle: b.Lifecycle[:0], slab: b.slab[:0]}
	return nil
}

// add is the scan's visit: one record into the current batch.
func (r *batchReader) add(seq uint64, data []byte) error {
	b := &r.b
	lifecycle := RecordType(data) >= RecRegister
	if lifecycle && !r.src.Lifecycle {
		return nil
	}
	if b.First == 0 {
		b.First = seq
	}
	b.Last = seq
	if lifecycle {
		b.LifecycleSeq = seq
		b.Lifecycle = append(b.Lifecycle, data...)
		return r.emit()
	}
	b.Records++
	insert, name, enc, err := splitEvent(data)
	if err != nil {
		return fmt.Errorf("wal record %d: %w", seq, err)
	}
	last := r.rc.last
	rel, ord := r.rc.resolve(name)
	if rel == nil {
		b.Rejected++
		return nil
	}
	if rel != last {
		r.keep = r.src.Keep == nil || r.src.Keep(rel)
	}
	if !r.keep {
		return nil
	}
	if b.slab == nil {
		b.slab = make([]types.Value, 0, BatchEvents*4)
	}
	start := len(b.slab)
	if b.slab, err = types.AppendDecodedKey(b.slab, enc); err != nil {
		return fmt.Errorf("wal record %d: %w", seq, err)
	}
	args := b.slab[start:len(b.slab):len(b.slab)]
	if rel.Validate(args) != nil {
		b.slab = b.slab[:start]
		b.Rejected++
		return nil
	}
	rel.Widen(args) // once, in place: the slab is the batch's own
	op := stream.Delete
	if insert {
		op = stream.Insert
	}
	b.Events = append(b.Events, stream.Event{Op: op, Ord: int32(ord), Relation: rel.Name, Args: args})
	if len(b.Events) == BatchEvents {
		return r.emit()
	}
	return nil
}
