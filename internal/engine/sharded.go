package engine

import (
	"fmt"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/translate"
	"dbtoaster/internal/treap"
	"dbtoaster/internal/types"
)

// ShardedToaster is the parallel variant of Toaster: the compiled trigger
// program runs across N shard workers, each owning the map entries whose
// partition key hashes to it, plus one serialized global worker for the
// statements (and maps) the partition analysis cannot prove shard-local.
// Results are byte-identical to Toaster's: each map entry sees exactly
// the same update sequence it would see single-threaded, because an
// entry's updates all come from one worker in stream order.
type ShardedToaster struct {
	viewReader
	rt       *runtime.ShardedEngine
	q        *Query
	compiled *compiler.Compiled
	name     string
	// batch is the reused OnEventBatch staging buffer (the dispatcher
	// copies events into its own pending batches before returning).
	batch []runtime.Event
}

// NewShardedToaster compiles the query and builds the sharded runtime
// with the given shard-worker count.
func NewShardedToaster(q *Query, shards int, opts runtime.Options) (*ShardedToaster, error) {
	comp, err := compiler.Compile(q.Translated)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.NewShardedEngine(comp.Program, runtime.ShardOptions{Shards: shards, Base: opts})
	if err != nil {
		return nil, err
	}
	t := &ShardedToaster{
		rt:       rt,
		q:        q,
		compiled: comp,
		name:     fmt.Sprintf("dbtoaster-sharded-%d", rt.NumShards()),
	}
	t.viewReader = viewReader{view: shardedViews(rt), byQuery: map[*translate.Query]*compiler.QueryInfo{}}
	t.index(comp.Root)
	return t, nil
}

// shardedViews merges per-shard storage for sharded maps and reads global
// maps from the global worker. Sharded entries are disjoint across shards
// (an entry lives where its partition value hashes), so point reads probe
// the owning shard and scans concatenate.
func shardedViews(rt *runtime.ShardedEngine) func(string) mapView {
	part := rt.Partition()
	n := rt.NumShards()
	return func(name string) mapView {
		pos, ok := part.MapPos[name]
		if !ok {
			return rt.GlobalMap(name)
		}
		shards := make([]*runtime.Map, n)
		for i := 0; i < n; i++ {
			shards[i] = rt.ShardMap(i, name)
		}
		return &mergedMap{shards: shards, pos: pos}
	}
}

type mergedMap struct {
	shards []*runtime.Map
	pos    int
}

func (m *mergedMap) Get(key types.Tuple) float64 {
	i := int(runtime.PartitionHash(key[m.pos]) % uint32(len(m.shards)))
	return m.shards[i].Get(key)
}

func (m *mergedMap) Scan(f func(types.Tuple, float64)) {
	for _, s := range m.shards {
		s.Scan(f)
	}
}

// Tree returns nil: sorted maps are never sharded (they stay on the
// global worker), so a merged view never backs extremum/threshold reads.
func (m *mergedMap) Tree() *treap.Tree { return nil }

// Name implements Engine.
func (t *ShardedToaster) Name() string { return t.name }

// Compiled exposes the compilation artifact.
func (t *ShardedToaster) Compiled() *compiler.Compiled { return t.compiled }

// Runtime exposes the underlying sharded runtime.
func (t *ShardedToaster) Runtime() *runtime.ShardedEngine { return t.rt }

// OnEvent implements Engine. The event is dispatched asynchronously; any
// worker error surfaces on a later OnEvent, Flush, or Results call.
func (t *ShardedToaster) OnEvent(ev stream.Event) error {
	args, err := coerce(t.q.Catalog, ev)
	if err != nil {
		return err
	}
	// The runtime retains args until the batch drains; clone so callers
	// may reuse their tuples (Coerce returns the input when no widening
	// was needed).
	return t.rt.OnEvent(ev.Relation, ev.Op == stream.Insert, args.Clone())
}

// OnEventBatch implements Engine: the whole batch is coerced up front and
// handed to the dispatcher in one call, so the admission check (a mutex
// round trip) is paid once per batch instead of once per event.
func (t *ShardedToaster) OnEventBatch(evs []stream.Event) error { return t.dispatch(evs, true) }

// applyAdmitted is OnEventBatch for a batch admitted where it entered.
func (t *ShardedToaster) applyAdmitted(b stream.Admitted) error { return t.dispatch(b.Events, false) }

// dispatch hands evs to the dispatcher, coercing each first when check is
// set.
func (t *ShardedToaster) dispatch(evs []stream.Event, check bool) error {
	if cap(t.batch) < len(evs) {
		t.batch = make([]runtime.Event, 0, len(evs))
	}
	batch := t.batch[:0]
	for _, ev := range evs {
		args := ev.Args
		if check {
			var err error
			if args, err = coerce(t.q.Catalog, ev); err != nil {
				return err
			}
		}
		// Clone for the same reason OnEvent does: the runtime retains the
		// tuple until the worker batch drains.
		batch = append(batch, runtime.Event{
			Rel:    ev.Relation,
			Insert: ev.Op == stream.Insert,
			Args:   args.Clone(),
		})
	}
	t.batch = batch
	return t.rt.OnEventBatch(batch)
}

// Flush blocks until every dispatched event has been applied.
func (t *ShardedToaster) Flush() error { return t.rt.Flush() }

// Close flushes and stops the worker goroutines.
func (t *ShardedToaster) Close() error { return t.rt.Close() }

// MemEntries implements Engine.
func (t *ShardedToaster) MemEntries() int {
	if err := t.rt.Flush(); err != nil {
		return 0
	}
	n := 0
	for _, s := range t.rt.MemStats() {
		n += s.Entries
	}
	return n
}

// MapStats reports per-map storage statistics across all workers.
func (t *ShardedToaster) MapStats() []runtime.MemStats {
	if err := t.rt.Flush(); err != nil {
		return nil
	}
	return t.rt.MemStats()
}

// Results implements Engine: it flushes the dispatcher (the barrier that
// makes the merged view consistent) and assembles the answer.
func (t *ShardedToaster) Results() (*Result, error) {
	if err := t.rt.Flush(); err != nil {
		return nil, err
	}
	return buildResult(t.q.Translated, t.groups, t.compValue)
}
