package runtime

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dbtoaster/internal/ir"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/types"
)

// Options selects execution strategy; the zero value is the fast path.
type Options struct {
	// NoSliceIndex disables secondary indexes: foreach loops scan the
	// whole map and filter (ablation: asymptotic cost of slices).
	NoSliceIndex bool
	// StmtWrapper, when set, is called around every compiled statement;
	// run() executes it. The debugger uses it for stepping and map-diff
	// tracing.
	StmtWrapper func(stmt *ir.Stmt, run func())
	// NoTypedStorage forces generic map storage and boxed closures even
	// for programs whose type annotations would allow packed int keys and
	// unboxed kernels (ablation and differential baseline).
	NoTypedStorage bool
	// Metrics, when non-nil, instruments the engine: per-(relation, op)
	// trigger counters and sampled latency histograms, and live per-map
	// entry gauges. Nil keeps the hot path identical to an uninstrumented
	// build (zero allocations, one nil check per event).
	Metrics *metrics.Sink
	// NoMetrics forces instrumentation off even when Metrics is set
	// (ablation convenience; semantically identical to Metrics == nil).
	NoMetrics bool
	// MetricsLabel scopes this engine's series inside a shared sink (e.g.
	// the query name when one server hosts several engines). Engines that
	// share a sink, a label, and map names also share gauges, so a
	// (sink, label) pair should describe one logical engine.
	MetricsLabel string
	// MapSource, when non-nil, supplies pre-built map instances at engine
	// construction instead of fresh empty ones — the mechanism behind both
	// hot-swap (a caught-up engine's maps transfer into the final build)
	// and cross-query map sharing (a borrower adopts another engine's
	// map). For each map name it may offer a Shared candidate (an instance
	// maintained by another engine: the new engine reads it but suppresses
	// every statement that would write it) and/or a Transfer instance (the
	// new engine takes it over, state included, and maintains it).
	// Candidates whose physical layout does not match what this build
	// selects are declined — Shared falls back to Transfer, Transfer to a
	// fresh map; a declined Transfer on a converged build is an error,
	// since silently dropping its state would be data loss.
	MapSource func(name string) SourcedMap
}

// SourcedMap is one MapSource offer; nil fields mean no candidate.
type SourcedMap struct {
	Shared   *Map // adoption candidate maintained by another engine
	Transfer *Map // instance this engine takes over and maintains
}

// sink returns the effective metrics sink (nil when disabled).
func (o Options) sink() *metrics.Sink {
	if o.NoMetrics {
		return nil
	}
	return o.Metrics
}

// Engine executes one compiled trigger program over its view maps.
// Engines are not safe for concurrent use.
type Engine struct {
	prog     *ir.Program
	opts     Options
	maps     map[string]*Map
	triggers []*compiledTrigger // in program order
	// table dispatches by relation ordinal: table[2*ord] is the insert
	// trigger, table[2*ord+1] the delete trigger, nil where the program has
	// none. Ordinals below bound are the relations BindRelations named, in
	// its order; the ones above are further spellings the name-based entry
	// points resolve (see BindRelations).
	table []*compiledTrigger
	bound int
	// ords resolves a relation name, as spelled or lowercased, to its
	// ordinal; only OnEvent consults it.
	ords   map[string]int
	events uint64
	// demote collects packed maps that typed compilation could not prove
	// safe; non-empty after construction means NewEngine must rebuild.
	demote map[string]bool
	// intPos marks key positions statically guaranteed to hold KindInt
	// values (typed mode only; see guaranteedIntPositions).
	intPos map[string][]bool
	// sink is the effective metrics sink (nil when instrumentation is off).
	sink *metrics.Sink
	// adopted marks maps supplied as Shared candidates by Options.MapSource:
	// another engine owns and maintains them, this engine only reads them,
	// and statements targeting them are compiled but not executed.
	adopted map[string]bool
	// declined lists Transfer candidates whose physical layout did not match
	// this build's selection; non-empty after convergence is a construction
	// error (accepting it would silently drop the transferred state).
	declined []string
}

type compiledTrigger struct {
	trig *ir.Trigger
	// stmts are the statements this engine executes: the trigger's list
	// minus statements targeting adopted (shared) maps, which their owner
	// already runs. Every statement is still compiled — typed-mode demote
	// decisions must not depend on who owns a map — and then dropped here.
	stmts []*ir.Stmt
	fns   []stmtFn // parallel to stmts
	env   *cenv    // reusable environment
	slots map[string]int
	// checks validate (and, when slot >= 0, unbox) trigger parameters at
	// event entry. Typed mode uses them to license unboxed kernels; both
	// modes use validate-only entries (slot == -1) to reject mismatched
	// kinds at admission instead of corrupting map keys downstream.
	checks []paramCheck
	// stats, when non-nil, is this trigger's series in the metrics sink.
	stats *metrics.TriggerStats
}

// cenv is the reusable per-trigger execution environment: boxed slots for
// generic closures plus unboxed int/float slot arrays for typed kernels.
type cenv struct {
	slots  []types.Value
	ints   []int64
	floats []float64
}

type stmtFn func(env *cenv)

// NewEngine builds maps, slice indexes, and the per-trigger closures.
//
// When the program carries type annotations (ir.InferTypes) and no option
// forces the generic path, maps with all-int keys of arity 1 to 4 use
// packed storage and statements compile to unboxed typed kernels. Storage
// selection is optimistic: compilation demotes any packed map with an
// access site it cannot prove int-safe and the engine is rebuilt with that
// map generic; each rebuild bans at least one map, so the loop terminates.
func NewEngine(prog *ir.Program, opts Options) (*Engine, error) {
	banned := map[string]bool{}
	for {
		e, err := newEngine(prog, opts, banned)
		if err != nil {
			return nil, err
		}
		if len(e.demote) == 0 {
			if len(e.declined) > 0 {
				return nil, fmt.Errorf("runtime: sourced maps %v do not match the converged layout", e.declined)
			}
			return e, nil
		}
		progress := false
		for name := range e.demote {
			if !banned[name] {
				banned[name] = true
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("runtime: typed compilation failed to converge (demoted: %v)", e.demote)
		}
	}
}

// mapLayout selects a map's physical layout: packed storage requires every
// key position to be statically guaranteed int (see
// guaranteedIntPositions), arity 1 to 4, and no sorted mirror.
func mapLayout(d *ir.MapDecl, banned map[string]bool, intPos map[string][]bool) storeKind {
	if banned[d.Name] || d.Sorted || len(d.Keys) == 0 || len(d.Keys) > 4 {
		return storeGeneric
	}
	g := intPos[d.Name]
	if len(g) != len(d.Keys) {
		return storeGeneric
	}
	for _, ok := range g {
		if !ok {
			return storeGeneric
		}
	}
	switch len(d.Keys) {
	case 1:
		return storeI1
	case 2:
		return storeI2
	case 3:
		return storeI3
	default:
		return storeI4
	}
}

func newEngine(prog *ir.Program, opts Options, banned map[string]bool) (*Engine, error) {
	e := &Engine{
		prog:    prog,
		opts:    opts,
		maps:    make(map[string]*Map, len(prog.Maps)),
		demote:  map[string]bool{},
		sink:    opts.sink(),
		adopted: map[string]bool{},
	}
	typed := !opts.NoTypedStorage
	if typed {
		e.intPos = guaranteedIntPositions(prog)
	}
	for _, name := range prog.MapOrder {
		decl := prog.Maps[name]
		kind := storeGeneric
		if typed {
			kind = mapLayout(decl, banned, e.intPos)
		}
		var m *Map
		if opts.MapSource != nil {
			src := opts.MapSource(name)
			if s := src.Shared; s != nil && s.kind == kind && s.decl.Sorted == decl.Sorted && len(s.decl.Keys) == len(decl.Keys) {
				m = s
				e.adopted[name] = true
			} else if t := src.Transfer; t != nil {
				if t.kind == kind {
					m = t
				} else {
					e.declined = append(e.declined, name)
				}
			}
		}
		if m == nil {
			m = newMapWithKind(decl, kind)
		}
		if e.sink != nil && !e.adopted[name] {
			// Adopted maps keep the owner's gauges (the bytes are the owner's
			// to report); transferred maps switch to this engine's label, with
			// the gauges re-synced to the carried-over state.
			m.gauges = e.sink.Map(opts.MetricsLabel, name, m.kind.String())
			m.gauges.Entries.Set(int64(m.Len()))
			m.gauges.Peak.MaxTo(int64(m.peak))
			m.gauges.EntryBytes.Set(int64(m.entryBytes()))
		}
		e.maps[name] = m
	}
	// Register slice indexes before any data arrives. A loop walks its
	// map's slots and chains in place, so a statement must not write the
	// map it iterates; the compiler never emits one (a statement's loops
	// range over the maps its target's delta is defined over, not the
	// target), and a hand-built program that does is refused here rather
	// than left to skip or revisit entries.
	for _, t := range prog.Triggers {
		for _, s := range t.Stmts {
			for _, lp := range s.Loops {
				if lp.Map == s.Target {
					return nil, fmt.Errorf("runtime: statement on %s loops over its own target %s", t.Name(), s.Target)
				}
				if pos := boundPositions(lp); !opts.NoSliceIndex && len(pos) > 0 && len(pos) < len(lp.Bound) {
					e.maps[lp.Map].EnsureSlice(pos)
				}
			}
		}
	}
	for _, t := range prog.Triggers {
		var ct *compiledTrigger
		var err error
		if typed {
			ct, err = e.compileTriggerTyped(t)
		} else {
			ct, err = e.compileTrigger(t)
		}
		if err != nil {
			return nil, err
		}
		if e.sink != nil {
			ct.stats = e.sink.Trigger(opts.MetricsLabel, t.Relation, t.Insert)
		}
		e.triggers = append(e.triggers, ct)
	}
	e.BindRelations(nil)
	return e, nil
}

// BindRelations lays the dispatch table out over rels, a catalog's relation
// names in ordinal order, so OnEventOrd takes that catalog's ordinals:
// ordinals 0..len(rels)-1 for rels, then one for every further name OnEvent
// may be given — each trigger's relation as declared and lowercased.
// Resolution is case-insensitive, exact spelling first: an event on "r"
// finds the triggers of "R" whatever the path.
func (e *Engine) BindRelations(rels []string) {
	ins, del := map[string]*compiledTrigger{}, map[string]*compiledTrigger{}
	for _, ct := range e.triggers {
		byRel := ins
		if !ct.trig.Insert {
			byRel = del
		}
		byRel[ct.trig.Relation] = ct
		byRel[strings.ToLower(ct.trig.Relation)] = ct
	}
	resolve := func(byRel map[string]*compiledTrigger, rel string) *compiledTrigger {
		if ct, ok := byRel[rel]; ok {
			return ct
		}
		return byRel[strings.ToLower(rel)]
	}
	e.table, e.bound, e.ords = nil, len(rels), make(map[string]int, len(rels)+2*len(e.triggers))
	add := func(rel string) {
		if _, dup := e.ords[rel]; !dup {
			e.ords[rel] = len(e.table) / 2
		}
		e.table = append(e.table, resolve(ins, rel), resolve(del, rel))
	}
	for _, rel := range rels {
		add(rel)
	}
	for _, ct := range e.triggers {
		for _, rel := range [...]string{ct.trig.Relation, strings.ToLower(ct.trig.Relation)} {
			if _, ok := e.ords[rel]; !ok {
				add(rel)
			}
		}
	}
}

// trigger resolves a relation's trigger by name without allocating: the
// exact spelling probes first, then the lowercase one (the ToLower only runs
// for a name the engine has never seen spelled that way).
func (e *Engine) trigger(rel string, insert bool) *compiledTrigger {
	ord, ok := e.ords[rel]
	if !ok {
		if ord, ok = e.ords[strings.ToLower(rel)]; !ok {
			return nil
		}
	}
	return e.table[slot(ord, insert)]
}

// slot is an ordinal's table index for one op.
func slot(ord int, insert bool) int {
	if insert {
		return 2 * ord
	}
	return 2*ord + 1
}

// Program returns the engine's program.
func (e *Engine) Program() *ir.Program { return e.prog }

// Map returns a view map by name (nil when unknown).
func (e *Engine) Map(name string) *Map { return e.maps[name] }

// Events returns the number of processed events.
func (e *Engine) Events() uint64 { return e.events }

// MemStats reports per-map footprints. Adopted maps are flagged Shared:
// their bytes belong to the owning engine's report.
func (e *Engine) MemStats() []MemStats {
	out := make([]MemStats, 0, len(e.prog.MapOrder))
	for _, name := range e.prog.MapOrder {
		st := e.maps[name].Stats()
		st.Shared = e.adopted[name]
		out = append(out, st)
	}
	return out
}

// OwnedFootprint reports the entry count and approximate resident bytes
// across the maps this engine owns (adopted shared maps are charged to
// their owner). Unlike MemStats it allocates nothing, so the registry can
// afford to call it per event when per-query size quotas are enforced.
func (e *Engine) OwnedFootprint() (entries int, bytes uint64) {
	for _, name := range e.prog.MapOrder {
		if e.adopted[name] {
			continue
		}
		m := e.maps[name]
		entries += m.Len()
		bytes += m.ApproxBytes()
	}
	return entries, bytes
}

// SharedMaps lists the maps this engine adopted from Options.MapSource
// Shared candidates (owned and maintained by another engine), sorted.
func (e *Engine) SharedMaps() []string {
	out := make([]string, 0, len(e.adopted))
	for name := range e.adopted {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReadsAdopted reports whether any statement this engine executes reads a
// map it adopted. Such a read expects the map's state from before the
// current event, so the engine must run each event ahead of the map's
// owner — event by event, not batch by batch (see engine.Registry).
func (e *Engine) ReadsAdopted() bool {
	if len(e.adopted) == 0 {
		return false
	}
	for _, ct := range e.triggers {
		for _, s := range ct.stmts {
			for m := range s.Reads() {
				if e.adopted[m] {
					return true
				}
			}
		}
	}
	return false
}

// OnEvent runs the trigger for one base-relation delta. Unknown relations
// or relations the query does not mention are ignored (a standing query
// only reacts to its own inputs).
//
// With a metrics sink attached this is also the measurement point:
// per-trigger counts are exact, latency is sampled (Sink.Sampled) so the
// two clock reads amortize across the sample interval.
func (e *Engine) OnEvent(rel string, insert bool, args types.Tuple) error {
	return e.apply(e.trigger(rel, insert), args)
}

// OnEventOrd is OnEvent for an event admitted against the catalog whose
// relation names BindRelations was given: ord is the relation's ordinal
// there, and the trigger is one table load away. An ordinal past them — a
// relation the catalog gained after the engine was built, which the program
// cannot mention — has no trigger.
func (e *Engine) OnEventOrd(ord int, insert bool, args types.Tuple) error {
	var ct *compiledTrigger
	if uint(ord) < uint(e.bound) {
		ct = e.table[slot(ord, insert)]
	}
	return e.apply(ct, args)
}

// apply runs one event through its resolved trigger (nil: the query does
// not mention the relation).
func (e *Engine) apply(ct *compiledTrigger, args types.Tuple) error {
	e.events++
	if ct == nil {
		return nil
	}
	st := ct.stats
	if st == nil {
		return e.fire(ct, args)
	}
	// One atomic per event: the series counter doubles as the sampling
	// clock, and the sink derives the event total from admission-marked
	// series at snapshot time.
	if e.sink.Sampled(st.Count.Inc()) {
		start := time.Now()
		err := e.fire(ct, args)
		lat := int64(time.Since(start))
		st.Latency.Observe(lat)
		// The sampled path also feeds the structured trace ring: same
		// clock reads, one extra (per-sample, not per-event) ring write.
		e.sink.RecordTrace(e.opts.MetricsLabel, ct.trig.Relation, ct.trig.Insert, lat, start.UnixNano())
		if err != nil {
			st.Errors.Inc()
		}
		return err
	}
	err := e.fire(ct, args)
	if err != nil {
		st.Errors.Inc()
	}
	return err
}

// fire validates the event against the trigger's declaration and executes
// its statements. This is the uninstrumented hot path.
//
// A panicking trigger (a compiler bug, or an armed chaos failpoint) is
// contained here: the panic becomes a *PanicError so one poisoned tenant
// cannot unwind the commit lane's leader. The engine's own maps may be torn
// mid-statement after a panic — callers must treat the error as fatal for
// this engine (the registry quarantines it) — but every other engine's
// state is untouched.
func (e *Engine) fire(ct *compiledTrigger, args types.Tuple) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Relation: ct.trig.Relation, Value: p}
		}
	}()
	if cfg := chaosCfg.Load(); cfg != nil {
		cfg.check(ct.trig.Relation, e.events)
	}
	if len(args) != len(ct.trig.Params) {
		return fmt.Errorf("runtime: event %s expects %d args, got %d", ct.trig.Name(), len(ct.trig.Params), len(args))
	}
	// Admission kind validation (and, in typed mode, parameter unboxing).
	// Typed kernels read parameters from unboxed slots; the kind check is
	// what makes every downstream int/float assumption sound. Validate-only
	// entries (slot < 0) guard generic storage the same way: a mismatched
	// kind fails the one event with an error instead of poisoning map keys
	// or panicking in packed storage.
	for _, pc := range ct.checks {
		v := args[pc.arg]
		if v.Kind() != pc.kind {
			return fmt.Errorf("runtime: %s: column %d (%s) expects %s, got %s",
				ct.trig.Relation, pc.arg+1, ct.trig.Params[pc.arg], pc.kind, v.Kind())
		}
		if pc.slot < 0 {
			continue
		}
		if pc.kind == types.KindInt {
			ct.env.ints[pc.slot] = v.Int()
		} else {
			ct.env.floats[pc.slot] = v.Float()
		}
	}
	copy(ct.env.slots, args)
	if wrap := e.opts.StmtWrapper; wrap != nil {
		for i, fn := range ct.fns {
			wrap(ct.stmts[i], func() { fn(ct.env) })
		}
		return nil
	}
	for _, fn := range ct.fns {
		fn(ct.env)
	}
	return nil
}

func boundPositions(lp ir.Loop) []int {
	var pos []int
	for i, b := range lp.Bound {
		if b != nil {
			pos = append(pos, i)
		}
	}
	return pos
}

// --- Closure compilation ---

func (e *Engine) compileTrigger(t *ir.Trigger) (*compiledTrigger, error) {
	ct := &compiledTrigger{trig: t}
	// Slot 0..n-1: parameters. Loop variables get per-statement slots
	// above the parameter block; statements never share loop variables.
	slots := map[string]int{}
	for i, p := range t.Params {
		slots[p] = i
	}
	// Validate-only admission checks: generic storage tolerates any kind,
	// but admitting a mismatched kind would corrupt the view (keys that can
	// never be queried back) — reject it at the boundary like typed mode.
	for i, k := range t.ParamKinds {
		if k != types.KindNull {
			ct.checks = append(ct.checks, paramCheck{arg: i, kind: k, slot: -1})
		}
	}
	maxSlots := len(t.Params)
	for _, s := range t.Stmts {
		n := len(t.Params)
		local := make(map[string]int, len(slots))
		for k, v := range slots {
			local[k] = v
		}
		for _, lp := range s.Loops {
			for _, v := range lp.FreeVars {
				if v != "" {
					local[v] = n
					n++
				}
			}
			if lp.ValueVar != "" {
				local[lp.ValueVar] = n
				n++
			}
		}
		fn, err := e.compileStmt(s, local)
		if err != nil {
			return nil, err
		}
		// compileStmt may append let-binding slots.
		if n = len(local); n > maxSlots {
			maxSlots = n
		}
		if e.adopted[s.Target] {
			continue
		}
		ct.fns = append(ct.fns, fn)
		ct.stmts = append(ct.stmts, s)
	}
	ct.env = &cenv{slots: make([]types.Value, maxSlots)}
	ct.slots = slots
	return ct, nil
}

func (e *Engine) compileStmt(s *ir.Stmt, slots map[string]int) (stmtFn, error) {
	target := e.maps[s.Target]
	if target == nil {
		return nil, fmt.Errorf("runtime: statement targets unknown map %s", s.Target)
	}
	// Lets bind after loop variables; they get fresh slots.
	type letSlot struct {
		slot int
		fn   valFn
	}
	var lets []letSlot
	for _, lt := range s.Lets {
		fn, err := e.compileExpr(lt.Expr, slots)
		if err != nil {
			return nil, err
		}
		idx := len(slots)
		slots[lt.Var] = idx
		lets = append(lets, letSlot{slot: idx, fn: fn})
	}
	fillKey, err := e.compileKeys(s.Keys, slots)
	if err != nil {
		return nil, err
	}
	var condFn valFn
	if s.Cond != nil {
		fn, err := e.compileExpr(s.Cond, slots)
		if err != nil {
			return nil, err
		}
		condFn = fn
	}
	deltaFn, err := e.compileExpr(s.Delta, slots)
	if err != nil {
		return nil, err
	}
	// The probe is reused across calls: the map copies what it keeps, and
	// engines are single-goroutine. Boxed closures only ever run over
	// generic-layout maps, so the probe's boxed form is the one consulted.
	k := &key{vals: make(types.Tuple, len(s.Keys))}
	body := func(env *cenv) {
		for _, lt := range lets {
			env.slots[lt.slot] = lt.fn(env)
		}
		if condFn != nil && !condFn(env).Bool() {
			return
		}
		d := deltaFn(env)
		f := d.Float()
		if f == 0 {
			return
		}
		fillKey(env, k.vals)
		target.add(k, f)
	}
	// Wrap loops innermost-out.
	for i := len(s.Loops) - 1; i >= 0; i-- {
		wrapped, err := e.compileLoop(s.Loops[i], slots, body)
		if err != nil {
			return nil, err
		}
		body = wrapped
	}
	return body, nil
}

// keyFiller materializes a key tuple into dst from the environment.
type keyFiller func(env *cenv, dst types.Tuple)

// compileKeys builds the key extractor for a statement or lookup: when
// every key expression is a variable or constant (the overwhelmingly
// common shape after compilation), it precomputes a slot→position plan and
// fills the tuple with direct slot copies — no per-position closure calls.
// Other expressions fall back to compiled valFns.
func (e *Engine) compileKeys(keys []ir.Expr, slots map[string]int) (keyFiller, error) {
	plan := make([]int, len(keys)) // slot index, or -1 for a constant
	consts := make(types.Tuple, len(keys))
	fast := true
	for i, k := range keys {
		switch k := k.(type) {
		case *ir.VarRef:
			idx, ok := slots[k.Name]
			if !ok {
				return nil, fmt.Errorf("runtime: key variable %s has no slot", k.Name)
			}
			plan[i] = idx
		case *ir.Const:
			plan[i] = -1
			consts[i] = k.Value
		default:
			fast = false
		}
	}
	if fast {
		return func(env *cenv, dst types.Tuple) {
			for i, s := range plan {
				if s >= 0 {
					dst[i] = env.slots[s]
				} else {
					dst[i] = consts[i]
				}
			}
		}, nil
	}
	fns := make([]valFn, len(keys))
	for i, k := range keys {
		fn, err := e.compileExpr(k, slots)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return func(env *cenv, dst types.Tuple) {
		for i, fn := range fns {
			dst[i] = fn(env)
		}
	}, nil
}

func (e *Engine) compileLoop(lp ir.Loop, slots map[string]int, body stmtFn) (stmtFn, error) {
	m := e.maps[lp.Map]
	if m == nil {
		return nil, fmt.Errorf("runtime: loop over unknown map %s", lp.Map)
	}
	pos := boundPositions(lp)
	boundFns := make([]valFn, len(pos))
	for i, p := range pos {
		fn, err := e.compileExpr(lp.Bound[p], slots)
		if err != nil {
			return nil, err
		}
		boundFns[i] = fn
	}
	type freeSlot struct{ pos, slot int }
	var frees []freeSlot
	for p, v := range lp.FreeVars {
		if v == "" {
			continue
		}
		idx, ok := slots[v]
		if !ok {
			return nil, fmt.Errorf("runtime: loop variable %s has no slot", v)
		}
		frees = append(frees, freeSlot{pos: p, slot: idx})
	}
	valSlot := -1
	if lp.ValueVar != "" {
		valSlot = slots[lp.ValueVar]
	}
	// Buffers and the visit closure are allocated once per compiled loop
	// and reused across events: engines are single-goroutine, and loops
	// never nest through the same compiled statement twice.
	bound := make(types.Tuple, len(boundFns))
	var curEnv *cenv
	visit := func(t types.Tuple, v float64) {
		for _, fs := range frees {
			curEnv.slots[fs.slot] = t[fs.pos]
		}
		if valSlot >= 0 {
			curEnv.slots[valSlot] = types.NewFloat(v)
		}
		body(curEnv)
	}
	useSlice := !e.opts.NoSliceIndex && len(pos) > 0 && len(pos) < len(lp.Bound)
	if useSlice {
		slice := m.EnsureSlice(pos)
		return func(env *cenv) {
			curEnv = env
			for i, fn := range boundFns {
				bound[i] = fn(env)
			}
			slice.Iterate(bound, visit)
		}, nil
	}
	// Full scan with filtering (no bound positions, or index disabled).
	// The filtering visitor is hoisted with the other per-loop buffers so
	// the scan path stays allocation-free per event.
	scanVisit := func(t types.Tuple, val float64) {
		for i, p := range pos {
			if !t[p].Equal(bound[i]) {
				return
			}
		}
		visit(t, val)
	}
	return func(env *cenv) {
		curEnv = env
		for i, fn := range boundFns {
			bound[i] = fn(env)
		}
		m.Scan(scanVisit)
	}, nil
}

type valFn func(env *cenv) types.Value

func (e *Engine) compileExpr(x ir.Expr, slots map[string]int) (valFn, error) {
	switch x := x.(type) {
	case *ir.Const:
		v := x.Value
		return func(*cenv) types.Value { return v }, nil
	case *ir.VarRef:
		idx, ok := slots[x.Name]
		if !ok {
			return nil, fmt.Errorf("runtime: variable %s has no slot", x.Name)
		}
		return func(env *cenv) types.Value { return env.slots[idx] }, nil
	case *ir.Lookup:
		m := e.maps[x.Map]
		if m == nil {
			return nil, fmt.Errorf("runtime: lookup of unknown map %s", x.Map)
		}
		fill, err := e.compileKeys(x.Keys, slots)
		if err != nil {
			return nil, err
		}
		k := &key{vals: make(types.Tuple, len(x.Keys))}
		return func(env *cenv) types.Value {
			fill(env, k.vals)
			return types.NewFloat(m.get(k))
		}, nil
	case *ir.Arith:
		l, err := e.compileExpr(x.L, slots)
		if err != nil {
			return nil, err
		}
		r, err := e.compileExpr(x.R, slots)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case '+':
			return func(env *cenv) types.Value { return types.Add(l(env), r(env)) }, nil
		case '-':
			return func(env *cenv) types.Value { return types.Sub(l(env), r(env)) }, nil
		case '*':
			return func(env *cenv) types.Value { return types.Mul(l(env), r(env)) }, nil
		case '/':
			return func(env *cenv) types.Value { return types.Div(l(env), r(env)) }, nil
		}
		return nil, fmt.Errorf("runtime: bad arithmetic op %q", x.Op)
	case *ir.CmpE:
		l, err := e.compileExpr(x.L, slots)
		if err != nil {
			return nil, err
		}
		r, err := e.compileExpr(x.R, slots)
		if err != nil {
			return nil, err
		}
		op := x.Op
		one, zero := types.NewInt(1), types.NewInt(0)
		return func(env *cenv) types.Value {
			if op.Eval(l(env), r(env)) {
				return one
			}
			return zero
		}, nil
	}
	return nil, fmt.Errorf("runtime: unknown expression %T", x)
}
