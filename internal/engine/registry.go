package engine

import (
	"fmt"
	"sort"
	"sync"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
)

// Registry hosts the standing queries of one server behind a single ingest
// fan-out, and makes the query set dynamic: engines are compiled and caught
// up off to the side, then atomically swapped into the dispatch path, and
// removed again without disturbing the others.
//
// # Lifecycle
//
// A query moves through compiling → catching-up → live → draining. The
// first two states exist outside the ingest path (Begin reserves the name,
// the caller compiles and replays the WAL tail into a private engine);
// Install flips the entry to live, which is the only state that receives
// events; Remove passes through draining while ownership of any shared
// maps is handed off.
//
// # Cross-query map sharing
//
// The compiler names each materialized view by the canonical form of its
// defining aggregate (ir.MapDecl.Definition), so two queries that need the
// same view produce map declarations with identical definition strings —
// that string is the sharing signature. The registry keeps a pool of
// shareable map instances keyed by signature with a refcount; a query
// whose build matches a pooled signature adopts the owner's instance
// (runtime.Options.MapSource) instead of materializing its own, and its
// maintenance statements for that map are suppressed — the owner's engine
// already runs them.
//
// Correctness of sharing rests on two invariants:
//
//   - Same prefix: a pooled map may only be adopted by a query that starts
//     from the same WAL position (poolEntry.fromSeq == the borrower's
//     fromSeq), since a view's contents are a function of the whole event
//     prefix it has seen.
//   - Borrowers precede owners, event by event: events fan out
//     newest-registration-first, so every borrower (younger by
//     construction) fires before the owner updates the shared map —
//     borrowers read the map's pre-event state, which is what their
//     compiled statement order (readers before writers, ir.SortStmts)
//     expects. The invariant is per event, not per batch: a borrower whose
//     remaining statements read an adopted map (a join or EXISTS over
//     another query's aggregate) must not run event i+1 before the owner
//     has applied event i. While any live borrower is of that kind, a
//     batch is fanned out event-major (for each event, every engine);
//     otherwise — adopted maps are then only read when results are
//     assembled — engine-major (for each engine, the whole batch), which
//     keeps each engine's working set hot. Install, Remove and quarantine
//     re-derive which applies from the engines' kept statements
//     (runtime.Engine.ReadsAdopted). On Remove, ownership passes to the
//     *oldest* borrower, which keeps the order: the promoted owner is
//     still older than every remaining borrower.
type Registry struct {
	mu      sync.Mutex
	sharing bool
	entries map[string]*regEntry
	nextSeq int
	pool    map[string]*poolEntry
	// live caches the live entries newest-first for the event fan-out.
	live []*regEntry
	// eventMajor is set while some live engine executes statements that
	// read a map it borrows; batches then fan out event by event (see
	// "Borrowers precede owners" above). Recomputed with live.
	eventMajor bool
	// Fan-out scratch, reused across passes (which the caller serializes).
	one      [1]stream.Event
	admitted []stream.Event
	pass     []passState
	// stash holds quarantined entries displaced by an in-flight revive
	// (a REGISTER under a quarantined name); Abort restores them.
	stash map[string]*regEntry
	// quota and enforceBudget bound per-query resources in the fan-out
	// (see quarantine.go); onQuarantine makes demotions durable.
	quota         Quota
	enforceBudget bool
	onQuarantine  func(name, reason string) uint64
}

// QueryState is a registry entry's lifecycle state.
type QueryState int

const (
	StateCompiling QueryState = iota
	StateCatchingUp
	StateLive
	StateDraining
	// StateQuarantined marks a query removed from the fan-out after a
	// trigger panic or a quota breach. Its engine is
	// closed and dropped; the entry survives (with the reason) so LIST
	// stays honest, and a fresh REGISTER under the same name revives it.
	StateQuarantined
)

func (s QueryState) String() string {
	switch s {
	case StateCompiling:
		return "compiling"
	case StateCatchingUp:
		return "catching-up"
	case StateLive:
		return "live"
	case StateDraining:
		return "draining"
	case StateQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// QueryInfo is one registry entry's public view (the LIST command body).
type QueryInfo struct {
	Name    string
	SQL     string
	State   QueryState
	FromSeq uint64
	// Shared lists this query's map names adopted from other queries.
	Shared []string
	// Reason and LastGood are set for quarantined entries: why the query
	// was demoted, and the last WAL sequence it fully applied.
	Reason   string
	LastGood uint64
}

// PoolInfo describes one shared-map pool entry for tests and diagnostics.
type PoolInfo struct {
	Owner   string
	Refs    int
	FromSeq uint64
}

// CompiledEngine is the standing-query surface the registry manages; both
// the single-threaded Toaster and the sharded variant satisfy it.
type CompiledEngine interface {
	Engine
	Compiled() *compiler.Compiled
}

type regEntry struct {
	name    string
	sql     string
	q       *Query
	eng     CompiledEngine
	opts    runtime.Options
	state   QueryState
	fromSeq uint64
	// seq orders registrations (smaller = older); the fan-out runs
	// newest-first and ownership promotion picks oldest-first from it.
	seq int
	// owned/borrowed map sharing signature → this query's map name, for
	// the signatures this query owns in / adopts from the pool.
	owned    map[string]string
	borrowed map[string]string
	// Quarantine bookkeeping: why the entry was demoted, the last WAL
	// sequence it fully applied, and the consecutive trigger-budget
	// breach count (reset on every in-budget fan-out pass).
	reason   string
	lastGood uint64
	breaches int
}

type poolEntry struct {
	m       *runtime.Map
	owner   string
	refs    int
	fromSeq uint64
}

// NewRegistry creates an empty registry. sharing enables cross-query map
// adoption; it must be off when engines process events concurrently (the
// sharded runtime), since adopted maps are read without synchronization
// against the owner's writes.
func NewRegistry(sharing bool) *Registry {
	return &Registry{
		sharing:       sharing,
		entries:       map[string]*regEntry{},
		pool:          map[string]*poolEntry{},
		stash:         map[string]*regEntry{},
		enforceBudget: true,
	}
}

// Begin reserves a name in state compiling so concurrent registrations
// collide here, before either does any work. The reservation holds no
// engine yet; Abort releases it if compilation or catch-up fails.
func (r *Registry) Begin(name, sql string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, dup := r.entries[name]; dup {
		if e.state != StateQuarantined {
			return fmt.Errorf("query %q already registered", name)
		}
		// Revive: a REGISTER under a quarantined name displaces the dead
		// entry; Abort puts it back if compilation or catch-up fails.
		r.stash[name] = e
	}
	r.entries[name] = &regEntry{name: name, sql: sql, state: StateCompiling, seq: r.nextSeq}
	r.nextSeq++
	return nil
}

// SetState advances a pending entry's lifecycle state (for LIST honesty
// during long catch-ups). Live entries are managed by Install/Remove only.
func (r *Registry) SetState(name string, st QueryState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[name]; e != nil && e.state != StateLive {
		e.state = st
	}
}

// Abort releases a non-live reservation after a failed registration,
// restoring any quarantined entry the reservation displaced.
func (r *Registry) Abort(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil || e.state == StateLive || e.state == StateQuarantined {
		return
	}
	if old := r.stash[name]; old != nil {
		r.entries[name] = old
		delete(r.stash, name)
		return
	}
	delete(r.entries, name)
}

// sigsOf maps a program's map names to their sharing signatures (only maps
// with a closed-form definition are shareable).
func sigsOf(prog *ir.Program) map[string]string {
	sigs := make(map[string]string, len(prog.MapOrder))
	for _, mn := range prog.MapOrder {
		if d := prog.Maps[mn].Definition; d != nil {
			sigs[mn] = d.String()
		}
	}
	return sigs
}

// Install makes a caught-up engine live. For a *Toaster the engine is
// rebuilt from its compilation artifact with a MapSource that (a) offers
// every eligible pooled map for adoption and (b) transfers the caught-up
// engine's own map state into the final build — so the swapped-in engine
// starts exactly where the private catch-up engine stopped, with metrics
// attached and sharing applied. Other engine kinds (the sharded runtime)
// install as-is. fromSeq is the WAL position before which this query saw
// nothing; opts are the final build's runtime options and are retained for
// ownership-promotion rebuilds.
//
// The caller must serialize Install against event application (the
// server's control lane does); the registry lock alone is not enough,
// because the rebuilt engine must not miss events between the transfer
// and going live.
func (r *Registry) Install(name string, q *Query, eng CompiledEngine, fromSeq uint64, opts runtime.Options) (CompiledEngine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.entries[name]
	if ent == nil {
		ent = &regEntry{name: name, seq: r.nextSeq}
		r.nextSeq++
		r.entries[name] = ent
	} else if ent.state == StateLive {
		return nil, fmt.Errorf("query %q already registered", name)
	}
	ent.sql = q.SQL
	ent.q = q
	ent.opts = opts
	ent.fromSeq = fromSeq
	ent.owned = map[string]string{}
	ent.borrowed = map[string]string{}

	t, isToaster := eng.(*Toaster)
	if !isToaster {
		ent.eng = eng
		ent.state = StateLive
		delete(r.stash, name)
		r.rebuildLiveLocked()
		return eng, nil
	}

	comp := t.Compiled()
	sigs := sigsOf(comp.Program)
	src := func(mn string) runtime.SourcedMap {
		out := runtime.SourcedMap{Transfer: t.Runtime().Map(mn)}
		if r.sharing {
			if sig, ok := sigs[mn]; ok {
				if pe := r.pool[sig]; pe != nil && pe.fromSeq == fromSeq {
					out.Shared = pe.m
				}
			}
		}
		return out
	}
	ropts := opts
	ropts.MapSource = src
	final, err := NewToasterCompiled(q, comp, ropts)
	if err != nil {
		return nil, err
	}
	adopted := map[string]bool{}
	for _, mn := range final.Runtime().SharedMaps() {
		adopted[mn] = true
	}
	for mn, sig := range sigs {
		switch {
		case adopted[mn]:
			r.pool[sig].refs++
			ent.borrowed[sig] = mn
		case r.sharing:
			if _, taken := r.pool[sig]; !taken {
				r.pool[sig] = &poolEntry{m: final.Runtime().Map(mn), owner: name, refs: 1, fromSeq: fromSeq}
				ent.owned[sig] = mn
			}
		}
	}
	ent.eng = final
	ent.state = StateLive
	delete(r.stash, name)
	r.rebuildLiveLocked()
	return final, nil
}

// Remove unregisters a live query, promoting ownership of any maps it
// owns in the pool to their oldest borrower. It returns the removed
// engine so the caller can close it; the last live query is refused
// (a server must always answer RESULT).
//
// Like Install, Remove must be serialized against event application by
// the caller: promotion rebuilds a borrower's engine in place.
func (r *Registry) Remove(name string) (CompiledEngine, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.entries[name]
	if ent == nil {
		return nil, fmt.Errorf("unknown query %q", name)
	}
	if ent.state == StateQuarantined {
		// A quarantined entry holds no engine and no pool stake; removing
		// it is pure bookkeeping.
		delete(r.entries, name)
		return nil, nil
	}
	if ent.state != StateLive {
		return nil, fmt.Errorf("unknown query %q", name)
	}
	if len(r.live) == 1 {
		return nil, fmt.Errorf("cannot unregister %q: it is the last registered query", name)
	}
	ent.state = StateDraining
	for sig := range ent.borrowed {
		r.pool[sig].refs--
	}
	// Promotion: group this entry's owned signatures by the borrower that
	// inherits each (the oldest), then rebuild each such borrower once.
	promote := map[*regEntry][]string{}
	for sig := range ent.owned {
		pe := r.pool[sig]
		pe.refs--
		if pe.refs == 0 {
			delete(r.pool, sig)
			continue
		}
		b := r.oldestBorrowerLocked(sig)
		if b == nil {
			ent.state = StateLive
			return nil, fmt.Errorf("registry: pool entry %q has %d refs but no borrower", sig, pe.refs)
		}
		promote[b] = append(promote[b], sig)
	}
	for b, sigsToOwn := range promote {
		if err := r.promoteLocked(b, sigsToOwn); err != nil {
			ent.state = StateLive
			return nil, err
		}
	}
	delete(r.entries, name)
	r.rebuildLiveLocked()
	return ent.eng, nil
}

// oldestBorrowerLocked finds the live entry with the smallest registration
// sequence that borrows sig.
func (r *Registry) oldestBorrowerLocked(sig string) *regEntry {
	var best *regEntry
	for _, e := range r.entries {
		if e.state != StateLive {
			continue
		}
		if _, ok := e.borrowed[sig]; !ok {
			continue
		}
		if best == nil || e.seq < best.seq {
			best = e
		}
	}
	return best
}

// promoteLocked rebuilds borrower b so it takes over maintenance of the
// given pooled signatures (its adoption of them becomes a transfer), while
// keeping its other adoptions and transferring its private maps in place.
func (r *Registry) promoteLocked(b *regEntry, sigsToOwn []string) error {
	t, ok := b.eng.(*Toaster)
	if !ok {
		return fmt.Errorf("registry: borrower %q is not a single-threaded engine", b.name)
	}
	own := map[string]bool{}
	for _, sig := range sigsToOwn {
		own[sig] = true
	}
	comp := t.Compiled()
	sigs := sigsOf(comp.Program)
	src := func(mn string) runtime.SourcedMap {
		if sig, ok := sigs[mn]; ok {
			if own[sig] {
				return runtime.SourcedMap{Transfer: r.pool[sig].m}
			}
			if bmn, ok := b.borrowed[sig]; ok && bmn == mn {
				return runtime.SourcedMap{Shared: r.pool[sig].m}
			}
		}
		return runtime.SourcedMap{Transfer: t.Runtime().Map(mn)}
	}
	ropts := b.opts
	ropts.MapSource = src
	final, err := NewToasterCompiled(b.q, comp, ropts)
	if err != nil {
		return fmt.Errorf("registry: promoting %q: %w", b.name, err)
	}
	// The rebuild must re-adopt exactly the signatures b still borrows;
	// anything else means the promoted engine silently diverged.
	wantShared := map[string]bool{}
	for sig, mn := range b.borrowed {
		if !own[sig] {
			wantShared[mn] = true
		}
	}
	got := final.Runtime().SharedMaps()
	if len(got) != len(wantShared) {
		return fmt.Errorf("registry: promoting %q: adoption set changed (got %v)", b.name, got)
	}
	for _, mn := range got {
		if !wantShared[mn] {
			return fmt.Errorf("registry: promoting %q: unexpected adoption of %q", b.name, mn)
		}
	}
	for _, sig := range sigsToOwn {
		mn := b.borrowed[sig]
		delete(b.borrowed, sig)
		b.owned[sig] = mn
		r.pool[sig].owner = b.name
	}
	b.eng = final
	return nil
}

// rebuildLiveLocked refreshes the fan-out order: newest registration
// first, so borrowers always fire before the owners of their shared maps.
func (r *Registry) rebuildLiveLocked() {
	live := r.live[:0:0]
	for _, e := range r.entries {
		if e.state == StateLive {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq > live[j].seq })
	r.live = live
	r.eventMajor = false
	for _, e := range live {
		if t, ok := e.eng.(*Toaster); ok && t.rt.ReadsAdopted() {
			r.eventMajor = true
			break
		}
	}
}

// OnEvent fans one delta out to every live engine, newest registration
// first. Every engine sees the event even if an earlier one rejects it
// (identical rejection on replay keeps recovery convergent); the first
// ordinary rejection is reported, while panics and quota breaches
// quarantine the offending engine instead (see quarantine.go).
func (r *Registry) OnEvent(ev stream.Event) error {
	r.one[0] = ev
	return r.fanOut(r.one[:])
}

// OnEventBatch fans a batch out to every live engine, newest first. The
// outcome equals OnEvent per event in order, up to the first event the
// catalog rejects: that one is reported and the rest of the batch dropped.
func (r *Registry) OnEventBatch(evs []stream.Event) error {
	return r.fanOut(evs)
}

// Get returns a live query's engine.
func (r *Registry) Get(name string) (CompiledEngine, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil || e.state != StateLive {
		return nil, false
	}
	return e.eng, true
}

// Query returns a live query's prepared form.
func (r *Registry) Query(name string) (*Query, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil || e.state != StateLive {
		return nil, false
	}
	return e.q, true
}

// First returns the oldest live query's name ("" when none).
func (r *Registry) First() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *regEntry
	for _, e := range r.entries {
		if e.state == StateLive && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	if best == nil {
		return ""
	}
	return best.name
}

// Names lists live query names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ordered := r.orderedLocked()
	out := make([]string, 0, len(ordered))
	for _, e := range ordered {
		if e.state == StateLive {
			out = append(out, e.name)
		}
	}
	return out
}

// Infos lists every entry (including pending registrations) in
// registration order.
func (r *Registry) Infos() []QueryInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	ordered := r.orderedLocked()
	out := make([]QueryInfo, 0, len(ordered))
	for _, e := range ordered {
		info := QueryInfo{Name: e.name, SQL: e.sql, State: e.state, FromSeq: e.fromSeq,
			Reason: e.reason, LastGood: e.lastGood}
		for _, mn := range e.borrowed {
			info.Shared = append(info.Shared, mn)
		}
		sort.Strings(info.Shared)
		out = append(out, info)
	}
	return out
}

func (r *Registry) orderedLocked() []*regEntry {
	ordered := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	return ordered
}

// SetFromSeq pins a live query's catch-up origin after a checkpoint
// restore rewrote its state in place. Pool entries this query owns move
// with it, keeping sharing eligibility (which compares origins) honest for
// later registrations.
func (r *Registry) SetFromSeq(name string, fromSeq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return
	}
	e.fromSeq = fromSeq
	for sig := range e.owned {
		if pe := r.pool[sig]; pe != nil {
			pe.fromSeq = fromSeq
		}
	}
}

// Pool reports the shared-map pool by signature (tests and diagnostics).
func (r *Registry) Pool() map[string]PoolInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PoolInfo, len(r.pool))
	for sig, pe := range r.pool {
		out[sig] = PoolInfo{Owner: pe.owner, Refs: pe.refs, FromSeq: pe.fromSeq}
	}
	return out
}
