// Package metrics is the runtime's low-overhead instrumentation layer:
// per-(relation, event-kind) trigger counters and latency histograms,
// per-map cardinality gauges, shard-dispatcher batch statistics, and
// engine uptime/throughput — the observable counterpart of the paper's
// Figure 4 debugger, built for production streams instead of stepping.
//
// Design constraints, in priority order:
//
//   - Disabled means free: every instrumented call site guards on a nil
//     *Sink (or a nil per-object handle), so an uninstrumented engine's
//     hot path is bit-identical to the pre-metrics code — zero extra
//     allocations, one predictable branch.
//   - Enabled means allocation-free: recording is atomic increments into
//     fixed arrays registered at engine construction. No map lookups, no
//     boxing, no time formatting on the hot path. Latency timestamps are
//     sampled (default 1 in 16 trigger firings) so the two time.Now calls
//     amortize to ~1-2ns/event.
//   - Concurrent by construction: shard workers share one Sink, so every
//     cell is an atomic; per-(relation,op) series merge across workers
//     without coordination.
//
// Reading is pull-based: Snapshot() materializes a consistent-enough view
// (individually atomic reads; cross-series skew is bounded by in-flight
// events) that serializes to the dbtserver METRICS command, Prometheus
// text format, expvar JSON, and the bakeoff's BENCH_*.json files.
package metrics

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one and returns the new value.
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter (the RESET command between bakeoff phases).
// Concurrent increments race benignly: they land either before or after
// the reset, never corrupt it.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous atomic value (e.g. live map entries).
type Gauge struct{ v atomic.Int64 }

// Inc adds one and returns the new value (so callers can feed a
// high-water MaxTo without a second atomic read).
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MaxTo raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) MaxTo(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram bucket geometry: power-of-two buckets from <2^histMinShift up
// to >=2^(histMinShift+histBuckets-2). With histMinShift=7 and 24 buckets
// the range is 128ns .. ~1.07s, which covers trigger latencies from the
// sub-microsecond typed kernels to pathological full-scan statements, and
// dispatcher batch sizes 1 .. 8M as a unitless distribution.
const (
	histMinShift = 7
	histBuckets  = 24
)

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// allocation-free and safe for concurrent use; values are clamped into
// the bucket range rather than dropped.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a value to its bucket index: bucket 0 holds values below
// 2^histMinShift, bucket i holds [2^(histMinShift+i-1), 2^(histMinShift+i)).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v)) // 0..64
	if i <= histMinShift {
		return 0
	}
	i -= histMinShift
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value (nanoseconds for latencies; unitless for
// sizes). Allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Reset zeroes all buckets and totals.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"` // per-bucket counts, low to high
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	s.Buckets = make([]uint64, histBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i >= histBuckets-1 {
		return ^uint64(0)
	}
	return 1<<(histMinShift+i) - 1
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from the
// bucket boundaries: the answer is exact to within one power of two.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// TriggerStats is one (relation, event-kind) series: how many times the
// trigger fired, how many firings errored, and a sampled latency
// distribution. Registered once at engine construction; recorded into by
// every worker that runs the trigger.
type TriggerStats struct {
	Label    string // engine/query scope ("" for unscoped engines)
	Relation string
	Insert   bool
	Count    Counter
	Errors   Counter
	Latency  Histogram

	// admission marks series recorded at the engine's admission boundary
	// (a non-worker engine: each event fires at most one trigger), so
	// Snapshot can derive the sink-wide event total from trigger counts
	// without a second per-event atomic on the hot path. Worker-engine
	// series stay false — their events were already counted by the
	// dispatcher's Ingested — and a label must not mix worker and
	// non-worker engines.
	admission atomic.Bool
}

// DispatchStats is one sharded-dispatcher series (the shard workers in
// aggregate, or the global worker): batches handed off, events they
// carried, the batch-size distribution, the ring queue depth observed at
// each hand-off, and the backpressure counters — producer stalls against
// a full ring and consumer parks on an empty one.
type DispatchStats struct {
	Batches    Counter
	Events     Counter
	BatchSize  Histogram
	QueueDepth Histogram
	Stalls     Counter
	Parks      Counter
}

// WorkerApplyStats is one shard (or global) worker's batch-apply series:
// how many batches it executed and the wall-clock latency of each apply.
// Unlike the sampled per-trigger latencies, every batch is timed — the
// clock pair amortizes over the whole batch, so the overhead per event is
// negligible.
type WorkerApplyStats struct {
	Label   string // engine/query scope ("" for unscoped engines)
	Worker  string // "shard-0" .. "shard-N", "global"
	Batches Counter
	Events  Counter
	ApplyNs Histogram
}

// WALStats is the durability subsystem's series: write-ahead appends,
// fsync and checkpoint durations, recovery activity, and the group-commit
// stage (commit groups written, the distribution of events coalesced per
// group). Registered once per sink (the WAL is a server-wide facility,
// not per-query).
type WALStats struct {
	Appends         Counter
	AppendedBytes   Counter
	Syncs           Counter
	SyncNs          Histogram
	Checkpoints     Counter
	CheckpointNs    Histogram
	CheckpointBytes Counter
	Recoveries      Counter
	ReplayedRecords Counter
	// ReplayBytes and ReplayRecords are the read side of the log: segment
	// bytes read, and records read and checksummed, by every replay scan —
	// recovery, a registration's catch-up passes and its final drain.
	ReplayBytes   Counter
	ReplayRecords Counter
	GroupCommits  Counter
	GroupSize     Histogram
	// LeaderHandoffs counts commit-lane leaderships passed to a queued
	// producer; LeaderYields, leaders that yielded after a long swap.
	LeaderHandoffs Counter
	LeaderYields   Counter
}

// RobustStats is the overload-protection and failure-isolation series:
// requests shed by the bounded commit lane, connections refused at the
// accept loop, idle connections reaped and queries quarantined.
// Registered once per sink, like WALStats.
type RobustStats struct {
	ShedRequests Counter
	ShedEvents   Counter
	ConnRejects  Counter
	IdleCloses   Counter
	Quarantines  Counter
}

// MapStats is one view map's live gauges: entry cardinality and its
// high-water mark. Entries/Peak move only on entry births and deaths, so
// steady-state updates (the hot path) never touch them.
type MapStats struct {
	Label   string
	Name    string
	Layout  string // physical layout ("int1".."int4", "generic")
	Entries Gauge
	Peak    Gauge
	// EntryBytes is the resident cost of one live entry as the map's owner
	// lays it out — key, value, 8 bytes of chain links per slice index, its
	// primary-table cell — restated when an index is added.
	EntryBytes Gauge
}

// ApproxBytes estimates the map's resident bytes as live entries times
// EntryBytes: runtime.Map.ApproxBytes without its slice-index head tables,
// which are dimension-sized and not tracked here. An estimate, not an
// accounting — the Prometheus export labels it accordingly.
func (m *MapStats) ApproxBytes() uint64 {
	return uint64(m.Entries.Load() * m.EntryBytes.Load())
}

// Config tunes a Sink.
type Config struct {
	// SampleEvery records a latency timestamp pair on every Nth trigger
	// firing (rounded down to a power of two; 1 = every firing; 0 = the
	// default of 64). Counters are exact regardless. The default keeps the
	// amortized clock cost well under the cost of the per-event counter
	// itself: two clock reads run ~100ns on a virtualized host, so 1-in-64
	// sampling adds ~1.5ns/event versus ~6ns at 1-in-16.
	SampleEvery int
}

// Sink is the instrumentation registry one engine (or one server hosting
// several engines) records into. Registration (Trigger, Dispatch, Map)
// happens at construction time and may allocate; recording through the
// returned handles is atomic and allocation-free.
type Sink struct {
	start      time.Time
	sampleMask uint64

	// Ingested counts events accepted at an explicit admission boundary
	// that trigger counters cannot account for — the sharded dispatcher,
	// whose worker engines may each fire on the same event. Single
	// (non-worker) engines do not touch it; their events are derived from
	// admission-marked trigger series at snapshot time, keeping the hot
	// path at one atomic per event.
	Ingested Counter

	mu        sync.Mutex
	triggers  []*TriggerStats
	trigIdx   map[string]*TriggerStats
	maps      []*MapStats
	mapIdx    map[string]*MapStats
	shard     *DispatchStats
	global    *DispatchStats
	workers   []*WorkerApplyStats
	workerIdx map[string]*WorkerApplyStats
	wal       *WALStats
	robust    *RobustStats
	queries   []*QueryStats
	queryIdx  map[string]*QueryStats

	// trace is the structured sample export ring (see query.go); it has
	// its own lock because records arrive on the sampled hot path.
	trace traceRing
}

// New creates a Sink with default configuration.
func New() *Sink { return NewWithConfig(Config{}) }

// NewWithConfig creates a Sink.
func NewWithConfig(cfg Config) *Sink {
	n := cfg.SampleEvery
	if n <= 0 {
		n = 64
	}
	// Round down to a power of two so sampling is a mask test.
	mask := uint64(1)<<uint(bits.Len(uint(n))-1) - 1
	return &Sink{
		start:      time.Now(),
		sampleMask: mask,
		trigIdx:    map[string]*TriggerStats{},
		mapIdx:     map[string]*MapStats{},
		workerIdx:  map[string]*WorkerApplyStats{},
		queryIdx:   map[string]*QueryStats{},
	}
}

// Sampled reports whether the firing with the given (1-based) sequence
// number should record a latency timestamp pair.
func (s *Sink) Sampled(seq uint64) bool { return seq&s.sampleMask == 0 }

// SampleInterval returns the latency sampling interval (1 = every firing).
func (s *Sink) SampleInterval() uint64 { return s.sampleMask + 1 }

// Start returns the uptime origin: the sink's creation time, or the most
// recent Reset.
func (s *Sink) Start() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

func trigKey(label, rel string, insert bool) string {
	op := "-"
	if insert {
		op = "+"
	}
	return label + "\x00" + op + rel
}

// Trigger registers (or returns the existing) series for one
// (label, relation, event-kind) recorded at an engine's admission
// boundary: its counts contribute to the sink-wide event total.
func (s *Sink) Trigger(label, rel string, insert bool) *TriggerStats {
	t := s.WorkerTrigger(label, rel, insert)
	t.admission.Store(true)
	return t
}

// WorkerTrigger is Trigger for engines owned by a sharded dispatcher:
// the workers share the series with each other, but their counts do not
// feed the event total (the dispatcher's Ingested already counted the
// event, possibly once per worker kind).
func (s *Sink) WorkerTrigger(label, rel string, insert bool) *TriggerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := trigKey(label, rel, insert)
	if t, ok := s.trigIdx[k]; ok {
		return t
	}
	t := &TriggerStats{Label: label, Relation: rel, Insert: insert}
	s.trigIdx[k] = t
	s.triggers = append(s.triggers, t)
	return t
}

// Map registers (or returns the existing) gauges for one view map.
func (s *Sink) Map(label, name, layout string) *MapStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := label + "\x00" + name
	if m, ok := s.mapIdx[k]; ok {
		return m
	}
	m := &MapStats{Label: label, Name: name, Layout: layout}
	s.mapIdx[k] = m
	s.maps = append(s.maps, m)
	return m
}

// ShardDispatch returns the shard-worker dispatch series (created on first
// use).
func (s *Sink) ShardDispatch() *DispatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shard == nil {
		s.shard = &DispatchStats{}
	}
	return s.shard
}

// GlobalDispatch returns the global-worker dispatch series.
func (s *Sink) GlobalDispatch() *DispatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.global == nil {
		s.global = &DispatchStats{}
	}
	return s.global
}

// WorkerApply registers (or returns the existing) batch-apply series for
// one worker of a sharded engine.
func (s *Sink) WorkerApply(label, worker string) *WorkerApplyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := label + "\x00" + worker
	if w, ok := s.workerIdx[k]; ok {
		return w
	}
	w := &WorkerApplyStats{Label: label, Worker: worker}
	s.workerIdx[k] = w
	s.workers = append(s.workers, w)
	return w
}

// WAL returns the sink's durability series (created on first use).
func (s *Sink) WAL() *WALStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		s.wal = &WALStats{}
	}
	return s.wal
}

// Robust returns the sink's overload/failure-isolation series (created on
// first use).
func (s *Sink) Robust() *RobustStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.robust == nil {
		s.robust = &RobustStats{}
	}
	return s.robust
}

// Reset zeroes every counter and histogram and restarts the uptime clock,
// so back-to-back bakeoff phases can share one server without the earlier
// phase polluting the later phase's rates. Map cardinality gauges describe
// live state rather than accumulated history, so Entries is kept and Peak
// collapses to the current cardinality.
func (s *Sink) Reset() {
	s.mu.Lock()
	triggers := append([]*TriggerStats(nil), s.triggers...)
	maps := append([]*MapStats(nil), s.maps...)
	workers := append([]*WorkerApplyStats(nil), s.workers...)
	shard, global, wal, robust := s.shard, s.global, s.wal, s.robust
	s.start = time.Now()
	s.mu.Unlock()
	s.Ingested.Reset()
	for _, t := range triggers {
		t.Count.Reset()
		t.Errors.Reset()
		t.Latency.Reset()
	}
	for _, m := range maps {
		m.Peak.Set(m.Entries.Load())
	}
	// Query lifecycle gauges (compile time, catch-up size) are registration
	// facts, not stream rates — they survive Reset. The trace ring holds
	// stream history and is cleared.
	s.trace.mu.Lock()
	s.trace.buf = [TraceRingSize]TraceEvent{}
	s.trace.mu.Unlock()
	for _, w := range workers {
		w.Batches.Reset()
		w.Events.Reset()
		w.ApplyNs.Reset()
	}
	for _, d := range []*DispatchStats{shard, global} {
		if d == nil {
			continue
		}
		d.Batches.Reset()
		d.Events.Reset()
		d.BatchSize.Reset()
		d.QueueDepth.Reset()
		d.Stalls.Reset()
		d.Parks.Reset()
	}
	if wal != nil {
		wal.Appends.Reset()
		wal.AppendedBytes.Reset()
		wal.Syncs.Reset()
		wal.SyncNs.Reset()
		wal.Checkpoints.Reset()
		wal.CheckpointNs.Reset()
		wal.CheckpointBytes.Reset()
		wal.Recoveries.Reset()
		wal.ReplayedRecords.Reset()
		wal.ReplayBytes.Reset()
		wal.ReplayRecords.Reset()
		wal.GroupCommits.Reset()
		wal.GroupSize.Reset()
		wal.LeaderHandoffs.Reset()
		wal.LeaderYields.Reset()
	}
	if robust != nil {
		robust.ShedRequests.Reset()
		robust.ShedEvents.Reset()
		robust.ConnRejects.Reset()
		robust.IdleCloses.Reset()
		robust.Quarantines.Reset()
	}
}

// --- Snapshots ---

// TriggerSnapshot is one trigger series at a point in time.
type TriggerSnapshot struct {
	Label    string            `json:"label,omitempty"`
	Relation string            `json:"relation"`
	Op       string            `json:"op"` // "insert" | "delete"
	Count    uint64            `json:"count"`
	Errors   uint64            `json:"errors"`
	Latency  HistogramSnapshot `json:"latency_ns"`
}

// MapSnapshot is one map's gauges at a point in time.
type MapSnapshot struct {
	Label       string `json:"label,omitempty"`
	Name        string `json:"name"`
	Layout      string `json:"layout"`
	Entries     int64  `json:"entries"`
	Peak        int64  `json:"peak"`
	ApproxBytes uint64 `json:"approx_bytes"`
}

// DispatchSnapshot is one dispatcher series at a point in time.
type DispatchSnapshot struct {
	Batches    uint64            `json:"batches"`
	Events     uint64            `json:"events"`
	BatchSize  HistogramSnapshot `json:"batch_size"`
	QueueDepth HistogramSnapshot `json:"queue_depth"`
	Stalls     uint64            `json:"stalls"`
	Parks      uint64            `json:"parks"`
}

// WorkerApplySnapshot is one worker's batch-apply series at a point in
// time.
type WorkerApplySnapshot struct {
	Label   string            `json:"label,omitempty"`
	Worker  string            `json:"worker"`
	Batches uint64            `json:"batches"`
	Events  uint64            `json:"events"`
	ApplyNs HistogramSnapshot `json:"apply_ns"`
}

// WALSnapshot is the durability series at a point in time.
type WALSnapshot struct {
	Appends         uint64            `json:"appends"`
	AppendedBytes   uint64            `json:"appended_bytes"`
	Syncs           uint64            `json:"syncs"`
	SyncNs          HistogramSnapshot `json:"sync_ns"`
	Checkpoints     uint64            `json:"checkpoints"`
	CheckpointNs    HistogramSnapshot `json:"checkpoint_ns"`
	CheckpointBytes uint64            `json:"checkpoint_bytes"`
	Recoveries      uint64            `json:"recoveries"`
	ReplayedRecords uint64            `json:"replayed_records"`
	ReplayBytes     uint64            `json:"replay_bytes"`
	ReplayRecords   uint64            `json:"replay_records"`
	GroupCommits    uint64            `json:"group_commits"`
	GroupSize       HistogramSnapshot `json:"group_size"`
	LeaderHandoffs  uint64            `json:"leader_handoffs"`
	LeaderYields    uint64            `json:"leader_yields"`
}

// RobustSnapshot is the overload/failure-isolation series at a point in
// time.
type RobustSnapshot struct {
	ShedRequests uint64 `json:"shed_requests"`
	ShedEvents   uint64 `json:"shed_events"`
	ConnRejects  uint64 `json:"conn_rejects"`
	IdleCloses   uint64 `json:"idle_closes"`
	Quarantines  uint64 `json:"quarantines"`
}

// HeapSnapshot is the process-level memory picture backing the "bytes"
// side of the map telemetry (Go runtime MemStats).
type HeapSnapshot struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	NumGC          uint32 `json:"num_gc"`
	PauseTotalNs   uint64 `json:"gc_pause_total_ns"`
}

// Snapshot is a full, serializable view of a Sink.
type Snapshot struct {
	TakenAt        time.Time             `json:"taken_at"`
	UptimeSeconds  float64               `json:"uptime_seconds"`
	Events         uint64                `json:"events_total"`
	EventsPerSec   float64               `json:"events_per_sec"`
	SampleInterval uint64                `json:"latency_sample_interval"`
	Triggers       []TriggerSnapshot     `json:"triggers"`
	Maps           []MapSnapshot         `json:"maps"`
	Shard          *DispatchSnapshot     `json:"shard_dispatch,omitempty"`
	Global         *DispatchSnapshot     `json:"global_dispatch,omitempty"`
	Workers        []WorkerApplySnapshot `json:"worker_apply,omitempty"`
	WAL            *WALSnapshot          `json:"wal,omitempty"`
	Robust         *RobustSnapshot       `json:"robust,omitempty"`
	Queries        []QuerySnapshot       `json:"queries,omitempty"`
	Heap           HeapSnapshot          `json:"heap"`
}

func dispatchSnap(d *DispatchStats) *DispatchSnapshot {
	if d == nil {
		return nil
	}
	return &DispatchSnapshot{
		Batches:    d.Batches.Load(),
		Events:     d.Events.Load(),
		BatchSize:  d.BatchSize.Snapshot(),
		QueueDepth: d.QueueDepth.Snapshot(),
		Stalls:     d.Stalls.Load(),
		Parks:      d.Parks.Load(),
	}
}

// Snapshot materializes the sink's current state. Each cell is read
// atomically; the set is not a transaction (skew is bounded by events in
// flight during the call). Safe to call concurrently with recording.
func (s *Sink) Snapshot() *Snapshot {
	now := time.Now()
	s.mu.Lock()
	up := now.Sub(s.start).Seconds()
	triggers := append([]*TriggerStats(nil), s.triggers...)
	maps := append([]*MapStats(nil), s.maps...)
	workers := append([]*WorkerApplyStats(nil), s.workers...)
	queries := append([]*QueryStats(nil), s.queries...)
	shard, global, wal, robust := s.shard, s.global, s.wal, s.robust
	s.mu.Unlock()
	snap := &Snapshot{
		TakenAt:        now,
		UptimeSeconds:  up,
		SampleInterval: s.sampleMask + 1,
	}
	// The event total: the dispatcher-counted events plus the trigger
	// counts of admission-boundary series (each event fires at most one
	// such trigger).
	events := s.Ingested.Load()
	for _, t := range triggers {
		op := "delete"
		if t.Insert {
			op = "insert"
		}
		count := t.Count.Load()
		if t.admission.Load() {
			events += count
		}
		snap.Triggers = append(snap.Triggers, TriggerSnapshot{
			Label:    t.Label,
			Relation: t.Relation,
			Op:       op,
			Count:    count,
			Errors:   t.Errors.Load(),
			Latency:  t.Latency.Snapshot(),
		})
	}
	snap.Events = events
	if up > 0 {
		snap.EventsPerSec = float64(snap.Events) / up
	}
	sort.Slice(snap.Triggers, func(i, j int) bool {
		a, b := snap.Triggers[i], snap.Triggers[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		return a.Op < b.Op
	})
	for _, m := range maps {
		snap.Maps = append(snap.Maps, MapSnapshot{
			Label:       m.Label,
			Name:        m.Name,
			Layout:      m.Layout,
			Entries:     m.Entries.Load(),
			Peak:        m.Peak.Load(),
			ApproxBytes: m.ApproxBytes(),
		})
	}
	sort.Slice(snap.Maps, func(i, j int) bool {
		a, b := snap.Maps[i], snap.Maps[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Name < b.Name
	})
	snap.Shard = dispatchSnap(shard)
	snap.Global = dispatchSnap(global)
	for _, w := range workers {
		snap.Workers = append(snap.Workers, WorkerApplySnapshot{
			Label:   w.Label,
			Worker:  w.Worker,
			Batches: w.Batches.Load(),
			Events:  w.Events.Load(),
			ApplyNs: w.ApplyNs.Snapshot(),
		})
	}
	sort.Slice(snap.Workers, func(i, j int) bool {
		a, b := snap.Workers[i], snap.Workers[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Worker < b.Worker
	})
	for _, q := range queries {
		snap.Queries = append(snap.Queries, QuerySnapshot{
			Label:          q.Label,
			CompileSeconds: float64(q.CompileNs.Load()) / 1e9,
			CatchupEvents:  q.CatchupEvents.Load(),
		})
	}
	sort.Slice(snap.Queries, func(i, j int) bool { return snap.Queries[i].Label < snap.Queries[j].Label })
	if wal != nil {
		snap.WAL = &WALSnapshot{
			Appends:         wal.Appends.Load(),
			AppendedBytes:   wal.AppendedBytes.Load(),
			Syncs:           wal.Syncs.Load(),
			SyncNs:          wal.SyncNs.Snapshot(),
			Checkpoints:     wal.Checkpoints.Load(),
			CheckpointNs:    wal.CheckpointNs.Snapshot(),
			CheckpointBytes: wal.CheckpointBytes.Load(),
			Recoveries:      wal.Recoveries.Load(),
			ReplayedRecords: wal.ReplayedRecords.Load(),
			ReplayBytes:     wal.ReplayBytes.Load(),
			ReplayRecords:   wal.ReplayRecords.Load(),
			GroupCommits:    wal.GroupCommits.Load(),
			GroupSize:       wal.GroupSize.Snapshot(),
			LeaderHandoffs:  wal.LeaderHandoffs.Load(),
			LeaderYields:    wal.LeaderYields.Load(),
		}
	}
	if robust != nil {
		snap.Robust = &RobustSnapshot{
			ShedRequests: robust.ShedRequests.Load(),
			ShedEvents:   robust.ShedEvents.Load(),
			ConnRejects:  robust.ConnRejects.Load(),
			IdleCloses:   robust.IdleCloses.Load(),
			Quarantines:  robust.Quarantines.Load(),
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Heap = HeapSnapshot{
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
		PauseTotalNs:   ms.PauseTotalNs,
	}
	return snap
}

// Lines renders the snapshot as the dbtserver METRICS reply body: one
// "key value..." line per series, machine-splittable on spaces.
func (s *Snapshot) Lines() []string {
	var out []string
	out = append(out,
		fmt.Sprintf("uptime_seconds %.3f", s.UptimeSeconds),
		fmt.Sprintf("events_total %d", s.Events),
		fmt.Sprintf("events_per_sec %.1f", s.EventsPerSec),
		fmt.Sprintf("latency_sample_interval %d", s.SampleInterval),
		fmt.Sprintf("heap_alloc_bytes %d heap_objects %d num_gc %d", s.Heap.HeapAllocBytes, s.Heap.HeapObjects, s.Heap.NumGC),
	)
	for _, t := range s.Triggers {
		label := t.Label
		if label == "" {
			label = "-"
		}
		out = append(out, fmt.Sprintf(
			"trigger %s %s %s count=%d errors=%d lat_samples=%d lat_mean_ns=%.0f lat_p50_ns=%d lat_p99_ns=%d",
			label, t.Relation, t.Op, t.Count, t.Errors,
			t.Latency.Count, t.Latency.Mean(), t.Latency.Quantile(0.50), t.Latency.Quantile(0.99)))
	}
	for _, m := range s.Maps {
		label := m.Label
		if label == "" {
			label = "-"
		}
		out = append(out, fmt.Sprintf("map %s %s entries=%d peak=%d approx_bytes=%d layout=%s",
			label, m.Name, m.Entries, m.Peak, m.ApproxBytes, m.Layout))
	}
	for _, q := range s.Queries {
		out = append(out, fmt.Sprintf("query %s compile_seconds=%.6f catchup_events=%d",
			q.Label, q.CompileSeconds, q.CatchupEvents))
	}
	writeDispatch := func(kind string, d *DispatchSnapshot) {
		if d == nil {
			return
		}
		out = append(out, fmt.Sprintf(
			"dispatch %s batches=%d events=%d batch_p50=%d batch_p99=%d queue_p50=%d queue_p99=%d stalls=%d parks=%d",
			kind, d.Batches, d.Events,
			d.BatchSize.Quantile(0.50), d.BatchSize.Quantile(0.99),
			d.QueueDepth.Quantile(0.50), d.QueueDepth.Quantile(0.99),
			d.Stalls, d.Parks))
	}
	writeDispatch("shard", s.Shard)
	writeDispatch("global", s.Global)
	for _, w := range s.Workers {
		label := w.Label
		if label == "" {
			label = "-"
		}
		out = append(out, fmt.Sprintf(
			"apply %s %s batches=%d events=%d apply_mean_ns=%.0f apply_p50_ns=%d apply_p99_ns=%d",
			label, w.Worker, w.Batches, w.Events,
			w.ApplyNs.Mean(), w.ApplyNs.Quantile(0.50), w.ApplyNs.Quantile(0.99)))
	}
	if w := s.WAL; w != nil {
		out = append(out, fmt.Sprintf(
			"wal appends=%d appended_bytes=%d syncs=%d sync_p99_ns=%d checkpoints=%d ckpt_mean_ns=%.0f ckpt_bytes=%d recoveries=%d replayed=%d replay_bytes=%d replay_records=%d group_commits=%d group_p50=%d group_p99=%d handoffs=%d yields=%d",
			w.Appends, w.AppendedBytes, w.Syncs, w.SyncNs.Quantile(0.99),
			w.Checkpoints, w.CheckpointNs.Mean(), w.CheckpointBytes,
			w.Recoveries, w.ReplayedRecords, w.ReplayBytes, w.ReplayRecords,
			w.GroupCommits, w.GroupSize.Quantile(0.50), w.GroupSize.Quantile(0.99),
			w.LeaderHandoffs, w.LeaderYields))
	}
	if r := s.Robust; r != nil {
		out = append(out, fmt.Sprintf(
			"robust shed_requests=%d shed_events=%d conn_rejects=%d idle_closes=%d quarantines=%d",
			r.ShedRequests, r.ShedEvents, r.ConnRejects, r.IdleCloses, r.Quarantines))
	}
	return out
}
