package runtime

// Trigger compilation: the physical counterpart of the IR typing pass
// (ir.InferTypes). Statements compile into kernels whose steady-state
// arithmetic, comparisons, and map probes run on native int64/float64 —
// types.Value boxing and Kind dispatch survive only where the annotations
// cannot prove a type (strings, unknown kinds, nullable integer division),
// where the compiler falls back to the boxed forms.
//
// Every kernel computes exactly what the types package's Value semantics
// define:
//
//   - int kernels use Go's wrapping int64 arithmetic, as types.Add/Sub/Mul
//     do on two ints;
//   - float kernels represent SQL NULL as NaN: types.NewFloat normalizes
//     NaN to Null and Null propagates through arithmetic, so NaN's IEEE
//     behavior (propagation through + - * /, all comparisons false)
//     reproduces Null's exactly; != needs an explicit both-non-NaN guard,
//     mirroring CmpOp.Eval's both-non-Null requirement;
//   - division guards the zero denominator (types.Div yields Null), and
//     integer '/' falls back to boxed types.Div (truncation + nullability
//     have no unboxed int64 representation);
//   - typed slots are only assigned from sources whose runtime kind is
//     guaranteed: trigger params (kind-checked at event entry against
//     Trigger.ParamKinds), typed-map loop variables (packed ints by
//     construction), and lets over those.
//
// A map may use packed storage only if every access site in the program
// (statement target keys, lookup keys, loop bounds) compiles to a
// never-null int kernel. The engine decides that before it compiles
// anything, from the same proof rules the compiler classifies expressions
// by (guaranteedIntPositions, nonIntProbes, provablyInt), so a packed map
// probed with a key that is not an int kernel is an internal error.

import (
	"fmt"
	"math"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/types"
)

// cls classifies a compiled expression's representation.
type cls uint8

const (
	// clsBoxed evaluates to a types.Value (the generic representation).
	clsBoxed cls = iota
	// clsInt evaluates to a never-null int64.
	clsInt
	// clsFloat evaluates to a float64 with NaN standing for SQL NULL.
	clsFloat
)

type (
	intFn   func(*cenv) int64
	floatFn func(*cenv) float64
	boolFn  func(*cenv) bool
	valFn   func(*cenv) types.Value
)

// texpr is a compiled expression: exactly one of ifn/ffn/vfn is set, per
// cls.
type texpr struct {
	cls cls
	ifn intFn
	ffn floatFn
	vfn valFn
}

// box converts to the boxed representation. Reboxing is exact: ints box to
// KindInt, floats through NewFloat (NaN back to Null), so a reboxed value
// is the Value that types arithmetic would have produced.
func (t texpr) box() valFn {
	switch t.cls {
	case clsInt:
		f := t.ifn
		return func(env *cenv) types.Value { return types.NewInt(f(env)) }
	case clsFloat:
		f := t.ffn
		return func(env *cenv) types.Value { return types.NewFloat(f(env)) }
	default:
		return t.vfn
	}
}

// asFloat converts a numeric typed expression to its float kernel. Int
// conversion is Value.Float() of the boxed int: float64(i).
func (t texpr) asFloat() floatFn {
	switch t.cls {
	case clsInt:
		f := t.ifn
		return func(env *cenv) float64 { return float64(f(env)) }
	case clsFloat:
		return t.ffn
	default:
		// Boxed numeric: Value.Float() maps Null to 0, which is only
		// correct where Null means "no update" (statement deltas);
		// arithmetic operands never take this path.
		f := t.vfn
		return func(env *cenv) float64 { return f(env).Float() }
	}
}

// asBool converts to a condition kernel, mirroring Value.Bool(): non-zero
// numbers are true, Null (NaN) is false.
func (t texpr) asBool() boolFn {
	switch t.cls {
	case clsInt:
		f := t.ifn
		return func(env *cenv) bool { return f(env) != 0 }
	case clsFloat:
		f := t.ffn
		return func(env *cenv) bool { v := f(env); return v == v && v != 0 }
	default:
		f := t.vfn
		return func(env *cenv) bool { return f(env).Bool() }
	}
}

// tslot is a typed environment slot.
type tslot struct {
	cls cls // clsInt or clsFloat
	idx int
}

// paramCheck validates and unboxes one trigger argument at event entry.
// The kind check is what licenses every downstream int kernel: a mismatch
// (impossible through the schema-coercing front end) fails the event
// instead of corrupting packed keys.
type paramCheck struct {
	arg  int
	kind types.Kind
	slot int
}

// guaranteedIntPositions computes, per map, which key positions are
// guaranteed to hold KindInt values at runtime — the soundness basis for
// packed storage and for unboxing loop variables over generic maps.
//
// A position starts guaranteed when its annotation is KindInt, and loses
// the guarantee if any statement writing the map cannot prove its key
// expression there is a never-null integer. Proofs are recursive: int
// params (kind-checked at event entry), loop variables drawn from
// currently-guaranteed positions, int constants, comparisons (always 1/0),
// division-free int arithmetic, and lets over those. The analysis iterates
// to a (greatest) fixed point; guarantees only shrink, so it terminates.
func guaranteedIntPositions(prog *ir.Program) map[string][]bool {
	g := make(map[string][]bool, len(prog.Maps))
	for name, d := range prog.Maps {
		pos := make([]bool, len(d.Keys))
		for i := range d.Keys {
			pos[i] = i < len(d.KeyKinds) && d.KeyKinds[i] == types.KindInt
		}
		g[name] = pos
	}
	for changed := true; changed; {
		changed = false
		for _, t := range prog.Triggers {
			for _, s := range t.Stmts {
				walkProbes(t, s, g, func(m string, keys []ir.Expr, intVars map[string]bool, write bool) {
					if !write {
						return
					}
					tg := g[m]
					for i, k := range keys {
						if i < len(tg) && tg[i] && !provablyInt(k, intVars) {
							tg[i] = false
							changed = true
						}
					}
				})
			}
		}
	}
	return g
}

// nonIntProbes lists the maps that some access — a lookup, a loop bound or
// a statement target — probes with a key expression not provably int,
// given the guarantees g. A packed probe holds only int words, so such a
// map takes the generic layout (see mapLayout).
func nonIntProbes(prog *ir.Program, g map[string][]bool) map[string]bool {
	out := map[string]bool{}
	for _, t := range prog.Triggers {
		for _, s := range t.Stmts {
			walkProbes(t, s, g, func(m string, keys []ir.Expr, intVars map[string]bool, _ bool) {
				for _, k := range keys {
					if k != nil && !provablyInt(k, intVars) {
						out[m] = true
					}
				}
			})
		}
	}
	return out
}

// walkProbes visits every map access of statement s of trigger t with the
// variables proven int at that point, in the order the compiler binds them
// (see tcompiler.compileStmt): each loop's bounds before the loop binds its
// own variables, then the lookups in the lets (each let bound after its
// expression), the condition, the delta and the target keys, and last the
// target itself, the one visit with write set. A loop's keys are its
// bounds, nil at free positions; loop variables over position p of map m
// are int exactly when g[m][p] is.
func walkProbes(t *ir.Trigger, s *ir.Stmt, g map[string][]bool, visit func(m string, keys []ir.Expr, intVars map[string]bool, write bool)) {
	intVars := map[string]bool{}
	for i, p := range t.Params {
		intVars[p] = i < len(t.ParamKinds) && t.ParamKinds[i] == types.KindInt
	}
	var lookups func(x ir.Expr)
	lookups = func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.Lookup:
			for _, k := range x.Keys {
				lookups(k)
			}
			visit(x.Map, x.Keys, intVars, false)
		case *ir.Arith:
			lookups(x.L)
			lookups(x.R)
		case *ir.CmpE:
			lookups(x.L)
			lookups(x.R)
		}
	}
	for _, lp := range s.Loops {
		for _, b := range lp.Bound {
			lookups(b)
		}
		visit(lp.Map, lp.Bound, intVars, false)
		mg := g[lp.Map]
		for pos, v := range lp.FreeVars {
			if v != "" {
				intVars[v] = pos < len(mg) && mg[pos]
			}
		}
		if lp.ValueVar != "" {
			intVars[lp.ValueVar] = false // map values read back as float
		}
	}
	for _, lt := range s.Lets {
		lookups(lt.Expr)
		intVars[lt.Var] = provablyInt(lt.Expr, intVars)
	}
	lookups(s.Cond)
	lookups(s.Delta)
	for _, k := range s.Keys {
		lookups(k)
	}
	visit(s.Target, s.Keys, intVars, true)
}

// provablyInt reports whether the expression always evaluates to a
// non-null integer at runtime, given which variables are proven ints.
func provablyInt(e ir.Expr, intVars map[string]bool) bool {
	switch e := e.(type) {
	case *ir.Const:
		return e.Value.Kind() == types.KindInt
	case *ir.VarRef:
		return intVars[e.Name]
	case *ir.CmpE:
		return true // comparisons yield the integers 1 or 0
	case *ir.Arith:
		// Integer division may yield NULL (zero divisor) and is excluded.
		return e.Op != '/' && provablyInt(e.L, intVars) && provablyInt(e.R, intVars)
	}
	return false
}

// compileTrigger compiles one trigger's statements. Boxed slots hold the
// params first and per-statement loop variables above them; parameters
// with known numeric kinds additionally get unboxed int/float slots filled
// — after a kind check — at event entry.
func (e *Engine) compileTrigger(t *ir.Trigger) (*compiledTrigger, error) {
	ct := &compiledTrigger{trig: t}
	slots := map[string]int{}
	for i, p := range t.Params {
		slots[p] = i
	}
	ptslots := map[string]tslot{}
	nInt, nFloat := 0, 0
	for i, p := range t.Params {
		var k types.Kind
		if i < len(t.ParamKinds) {
			k = t.ParamKinds[i]
		}
		switch k {
		case types.KindInt:
			ptslots[p] = tslot{cls: clsInt, idx: nInt}
			ct.checks = append(ct.checks, paramCheck{arg: i, kind: k, slot: nInt})
			nInt++
		case types.KindFloat:
			ptslots[p] = tslot{cls: clsFloat, idx: nFloat}
			ct.checks = append(ct.checks, paramCheck{arg: i, kind: k, slot: nFloat})
			nFloat++
		default:
			// Non-numeric declared kinds stay boxed but are still validated
			// at admission (slot -1): a mismatched kind would corrupt the
			// view with keys that can never be queried back.
			if k != types.KindNull {
				ct.checks = append(ct.checks, paramCheck{arg: i, kind: k, slot: -1})
			}
		}
	}
	maxInt, maxFloat, maxSlots := nInt, nFloat, len(t.Params)
	for _, s := range t.Stmts {
		local := make(map[string]int, len(slots))
		for k, v := range slots {
			local[k] = v
		}
		// Boxed slots for loop variables (used when a loop runs over a
		// generic-layout map); indices stay dense so let bindings can
		// extend from len(local).
		n := len(t.Params)
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
		ltslots := make(map[string]tslot, len(ptslots))
		for k, v := range ptslots {
			ltslots[k] = v
		}
		tc := &tcompiler{e: e, slots: local, tslots: ltslots, nInt: nInt, nFloat: nFloat}
		fn, err := tc.compileStmt(s)
		if err != nil {
			return nil, err
		}
		if tc.nInt > maxInt {
			maxInt = tc.nInt
		}
		if tc.nFloat > maxFloat {
			maxFloat = tc.nFloat
		}
		if n := len(local); n > maxSlots {
			maxSlots = n
		}
		// Statements writing adopted (shared) maps are compiled but never
		// executed: their owner runs them.
		if e.adopted[s.Target] {
			continue
		}
		ct.fns = append(ct.fns, fn)
		ct.stmts = append(ct.stmts, s)
	}
	ct.env = &cenv{
		slots:  make([]types.Value, maxSlots),
		ints:   make([]int64, maxInt),
		floats: make([]float64, maxFloat),
	}
	ct.slots = slots
	return ct, nil
}

// tcompiler compiles one statement.
type tcompiler struct {
	e      *Engine
	slots  map[string]int   // boxed slots (params, generic loop vars, boxed lets)
	tslots map[string]tslot // typed slots (params, typed loop vars, typed lets)
	nInt   int              // next free int slot
	nFloat int              // next free float slot
}

func (tc *tcompiler) intSlot(name string) int {
	s := tslot{cls: clsInt, idx: tc.nInt}
	tc.nInt++
	tc.tslots[name] = s
	return s.idx
}

func (tc *tcompiler) floatSlot(name string) int {
	s := tslot{cls: clsFloat, idx: tc.nFloat}
	tc.nFloat++
	tc.tslots[name] = s
	return s.idx
}

// compileStmt builds the typed kernel for one statement. Loops bind their
// variables in order (outer loops' variables are visible to inner bounds),
// then lets, condition, delta, and the target update compile in the
// resulting scope.
func (tc *tcompiler) compileStmt(s *ir.Stmt) (stmtFn, error) {
	target := tc.e.maps[s.Target]
	if target == nil {
		return nil, fmt.Errorf("runtime: statement targets unknown map %s", s.Target)
	}
	type loopPlan struct {
		lp     ir.Loop
		bounds []texpr // compiled bound expressions, in position order
		pos    []int   // bound positions
	}
	plans := make([]loopPlan, 0, len(s.Loops))
	for _, lp := range s.Loops {
		m := tc.e.maps[lp.Map]
		if m == nil {
			return nil, fmt.Errorf("runtime: loop over unknown map %s", lp.Map)
		}
		pos := boundPositions(lp)
		bounds := make([]texpr, len(pos))
		for i, p := range pos {
			b, err := tc.compileExpr(lp.Bound[p])
			if err != nil {
				return nil, err
			}
			bounds[i] = b
		}
		// Bind loop variables. Typed-map tuples are packed ints, so their
		// variables take int slots (value: float). Variables over a
		// generic map take an int slot only when the position is
		// statically guaranteed int; otherwise they stay in the boxed
		// slots the trigger compiler pre-allocated.
		if m.kind != storeGeneric {
			for _, v := range lp.FreeVars {
				if v != "" {
					tc.intSlot(v)
				}
			}
		} else {
			g := tc.e.intPos[lp.Map]
			for p, v := range lp.FreeVars {
				if v == "" {
					continue
				}
				if p < len(g) && g[p] {
					tc.intSlot(v)
				} else {
					delete(tc.tslots, v) // boxed slot shadows any outer typed binding
				}
			}
		}
		if lp.ValueVar != "" {
			tc.floatSlot(lp.ValueVar)
		}
		plans = append(plans, loopPlan{lp: lp, bounds: bounds, pos: pos})
	}
	type letSlot struct {
		cls cls
		idx int
		ifn intFn
		ffn floatFn
		vfn valFn
	}
	var lets []letSlot
	for _, lt := range s.Lets {
		x, err := tc.compileExpr(lt.Expr)
		if err != nil {
			return nil, err
		}
		ls := letSlot{cls: x.cls}
		switch x.cls {
		case clsInt:
			ls.idx, ls.ifn = tc.intSlot(lt.Var), x.ifn
		case clsFloat:
			ls.idx, ls.ffn = tc.floatSlot(lt.Var), x.ffn
		default:
			ls.idx, ls.vfn = len(tc.slots), x.vfn
			tc.slots[lt.Var] = ls.idx
			delete(tc.tslots, lt.Var)
		}
		lets = append(lets, ls)
	}
	var cond boolFn
	if s.Cond != nil {
		c, err := tc.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		cond = c.asBool()
	}
	dx, err := tc.compileExpr(s.Delta)
	if err != nil {
		return nil, err
	}
	delta := dx.asFloat()
	keys := make([]texpr, len(s.Keys))
	for i, k := range s.Keys {
		kx, err := tc.compileExpr(k)
		if err != nil {
			return nil, err
		}
		keys[i] = kx
	}
	update, err := tc.compileUpdate(target, keys)
	if err != nil {
		return nil, err
	}
	body := func(env *cenv) {
		for _, lt := range lets {
			switch lt.cls {
			case clsInt:
				env.ints[lt.idx] = lt.ifn(env)
			case clsFloat:
				env.floats[lt.idx] = lt.ffn(env)
			default:
				env.slots[lt.idx] = lt.vfn(env)
			}
		}
		if cond != nil && !cond(env) {
			return
		}
		// NaN is the float kernels' NULL; a boxed Null delta reads as 0
		// (Value.Float), so either way a NULL delta is no update.
		d := delta(env)
		if d == 0 || d != d {
			return
		}
		update(env, d)
	}
	for i := len(plans) - 1; i >= 0; i-- {
		p := plans[i]
		wrapped, err := tc.compileLoop(p.lp, p.pos, p.bounds, body)
		if err != nil {
			return nil, err
		}
		body = wrapped
	}
	return body, nil
}

// keyFill writes the compiled key expressions of one map access into a
// probe: int kernels for a packed map, boxed values for the generic form.
type keyFill struct {
	pos  []int // probe position of each expression
	ints []intFn
	vals []valFn
}

func (f *keyFill) fill(env *cenv, k *key) {
	for i, fn := range f.ints {
		k.ints[f.pos[i]] = uint64(fn(env))
	}
	for i, fn := range f.vals {
		k.vals[f.pos[i]] = fn(env)
	}
}

// access compiles the key expressions bound at positions pos of an access
// to m, returning the filler and the probe it fills. mapLayout packs a map
// only when every access proves its keys int, so a packed map reached with
// any other key is a broken invariant, reported as an error.
func (tc *tcompiler) access(m *Map, pos []int, exprs []texpr) (*keyFill, *key, error) {
	f := &keyFill{pos: pos}
	for _, x := range exprs {
		if m.kind == storeGeneric {
			f.vals = append(f.vals, x.box())
		} else if x.cls == clsInt {
			f.ints = append(f.ints, x.ifn)
		} else {
			return nil, nil, fmt.Errorf("runtime: internal error: packed map %s probed with a key not proven int", m.Name())
		}
	}
	return f, &key{vals: make(types.Tuple, m.arity)}, nil
}

// compileUpdate builds the target-side kernel.
func (tc *tcompiler) compileUpdate(target *Map, keys []texpr) (func(*cenv, float64), error) {
	f, k, err := tc.access(target, target.primary.positions, keys)
	if err != nil {
		return nil, err
	}
	return func(env *cenv, d float64) {
		f.fill(env, k)
		target.add(k, d)
	}, nil
}

// compileLoop wraps body in the iteration kernel for one loop level: a
// chain walk through the access path over the bound positions (the primary
// index when every position is bound), or a filtered scan of the slot
// array when nothing is bound or slice indexes are disabled.
//
// Packed-map tuples are ints by construction, so their loop variables all
// hold int slots. Over a generic map, variables at statically
// int-guaranteed positions unbox into int slots and the rest land in their
// pre-allocated boxed slots. The loop value takes its float slot.
func (tc *tcompiler) compileLoop(lp ir.Loop, pos []int, bounds []texpr, body stmtFn) (stmtFn, error) {
	m := tc.e.maps[lp.Map]
	type freeSlot struct{ pos, slot int }
	var boxed, ints []freeSlot
	for p, v := range lp.FreeVars {
		if v == "" {
			continue
		}
		if s, ok := tc.tslots[v]; ok && s.cls == clsInt {
			ints = append(ints, freeSlot{pos: p, slot: s.idx})
			continue
		}
		idx, ok := tc.slots[v]
		if !ok || m.kind != storeGeneric {
			return nil, fmt.Errorf("runtime: loop variable %s has no slot", v)
		}
		boxed = append(boxed, freeSlot{pos: p, slot: idx})
	}
	valSlot := -1
	if lp.ValueVar != "" {
		s, ok := tc.tslots[lp.ValueVar]
		if !ok || s.cls != clsFloat {
			return nil, fmt.Errorf("runtime: loop value %s has no float slot", lp.ValueVar)
		}
		valSlot = s.idx
	}
	emit := func(env *cenv, s int32) {
		if m.kind != storeGeneric {
			e := m.words[int(s)*m.stride:]
			for _, fs := range ints {
				env.ints[fs.slot] = int64(e[fs.pos])
			}
		} else {
			t := m.vals[int(s)*m.arity:]
			for _, fs := range boxed {
				env.slots[fs.slot] = t[fs.pos]
			}
			// Positions in ints are guaranteed KindInt by the static
			// analysis, so the raw payload read is sound.
			for _, fs := range ints {
				env.ints[fs.slot] = t[fs.pos].Int()
			}
		}
		if valSlot >= 0 {
			env.floats[valSlot] = math.Float64frombits(*m.value(s))
		}
		body(env)
	}
	f, k, err := tc.access(m, pos, bounds)
	if err != nil {
		return nil, err
	}
	if len(pos) == m.arity || (len(pos) > 0 && !tc.e.opts.NoSliceIndex) {
		ix := m.EnsureSlice(pos)
		return func(env *cenv) {
			f.fill(env, k)
			for s := ix.first(k); s >= 0; {
				next := ix.next(s)
				emit(env, s)
				s = next
			}
		}, nil
	}
	return func(env *cenv) {
		f.fill(env, k)
		for s := int32(0); int(s)*m.stride < len(m.words); s++ {
			if *m.value(s) != 0 && m.matches(s, pos, k) {
				emit(env, s)
			}
		}
	}, nil
}

// compileExpr compiles one expression, choosing the strongest class the
// annotations support and falling back to the boxed forms (types
// arithmetic, CmpOp.Eval) whenever they do not.
func (tc *tcompiler) compileExpr(x ir.Expr) (texpr, error) {
	switch x := x.(type) {
	case *ir.Const:
		v := x.Value
		switch v.Kind() {
		case types.KindInt:
			i := v.Int()
			return texpr{cls: clsInt, ifn: func(*cenv) int64 { return i }}, nil
		case types.KindFloat:
			f := v.Float()
			return texpr{cls: clsFloat, ffn: func(*cenv) float64 { return f }}, nil
		}
		return texpr{cls: clsBoxed, vfn: func(*cenv) types.Value { return v }}, nil
	case *ir.VarRef:
		if s, ok := tc.tslots[x.Name]; ok {
			idx := s.idx
			if s.cls == clsInt {
				return texpr{cls: clsInt, ifn: func(env *cenv) int64 { return env.ints[idx] }}, nil
			}
			return texpr{cls: clsFloat, ffn: func(env *cenv) float64 { return env.floats[idx] }}, nil
		}
		idx, ok := tc.slots[x.Name]
		if !ok {
			return texpr{}, fmt.Errorf("runtime: variable %s has no slot", x.Name)
		}
		return texpr{cls: clsBoxed, vfn: func(env *cenv) types.Value { return env.slots[idx] }}, nil
	case *ir.Lookup:
		return tc.compileLookup(x)
	case *ir.Arith:
		return tc.compileArith(x)
	case *ir.CmpE:
		return tc.compileCmp(x)
	}
	return texpr{}, fmt.Errorf("runtime: unknown expression %T", x)
}

// compileLookup probes a map; the result is always a float (a map value
// is a float64 sum, read back as types.NewFloat would box it). Stored
// values are never NaN, so no NULL can originate here.
func (tc *tcompiler) compileLookup(x *ir.Lookup) (texpr, error) {
	m := tc.e.maps[x.Map]
	if m == nil {
		return texpr{}, fmt.Errorf("runtime: lookup of unknown map %s", x.Map)
	}
	keys := make([]texpr, len(x.Keys))
	for i, k := range x.Keys {
		kx, err := tc.compileExpr(k)
		if err != nil {
			return texpr{}, err
		}
		keys[i] = kx
	}
	f, k, err := tc.access(m, m.primary.positions, keys)
	if err != nil {
		return texpr{}, err
	}
	return texpr{cls: clsFloat, ffn: func(env *cenv) float64 {
		f.fill(env, k)
		return m.get(k)
	}}, nil
}

func (tc *tcompiler) compileArith(x *ir.Arith) (texpr, error) {
	l, err := tc.compileExpr(x.L)
	if err != nil {
		return texpr{}, err
	}
	r, err := tc.compileExpr(x.R)
	if err != nil {
		return texpr{}, err
	}
	// Both typed ints: native wrapping int64 arithmetic, exactly as
	// types.Add/Sub/Mul perform it on two ints. Integer division is nullable (types.Div
	// yields Null for a zero divisor) and truncating, which the int kernel
	// cannot express — it falls through to the boxed form below.
	if l.cls == clsInt && r.cls == clsInt && x.Op != '/' {
		lf, rf := l.ifn, r.ifn
		switch x.Op {
		case '+':
			return texpr{cls: clsInt, ifn: func(env *cenv) int64 { return lf(env) + rf(env) }}, nil
		case '-':
			return texpr{cls: clsInt, ifn: func(env *cenv) int64 { return lf(env) - rf(env) }}, nil
		case '*':
			return texpr{cls: clsInt, ifn: func(env *cenv) int64 { return lf(env) * rf(env) }}, nil
		}
		return texpr{}, fmt.Errorf("runtime: bad arithmetic op %q", x.Op)
	}
	// Mixed int/float typed operands: with at least one float operand
	// types.Add/Sub/Mul/Div evaluate through Value.Float(), which is exactly
	// asFloat. NaN (Null) propagates through + - * as Null does through
	// them.
	if l.cls != clsBoxed && r.cls != clsBoxed && !(l.cls == clsInt && r.cls == clsInt) {
		lf, rf := l.asFloat(), r.asFloat()
		switch x.Op {
		case '+':
			return texpr{cls: clsFloat, ffn: func(env *cenv) float64 { return lf(env) + rf(env) }}, nil
		case '-':
			return texpr{cls: clsFloat, ffn: func(env *cenv) float64 { return lf(env) - rf(env) }}, nil
		case '*':
			return texpr{cls: clsFloat, ffn: func(env *cenv) float64 { return lf(env) * rf(env) }}, nil
		case '/':
			// types.Div: zero divisor yields Null; NaN operands propagate.
			return texpr{cls: clsFloat, ffn: func(env *cenv) float64 {
				d := rf(env)
				if d == 0 {
					return math.NaN()
				}
				return lf(env) / d
			}}, nil
		}
		return texpr{}, fmt.Errorf("runtime: bad arithmetic op %q", x.Op)
	}
	// Boxed fallback: the types arithmetic itself.
	lv, rv := l.box(), r.box()
	switch x.Op {
	case '+':
		return texpr{cls: clsBoxed, vfn: func(env *cenv) types.Value { return types.Add(lv(env), rv(env)) }}, nil
	case '-':
		return texpr{cls: clsBoxed, vfn: func(env *cenv) types.Value { return types.Sub(lv(env), rv(env)) }}, nil
	case '*':
		return texpr{cls: clsBoxed, vfn: func(env *cenv) types.Value { return types.Mul(lv(env), rv(env)) }}, nil
	case '/':
		return texpr{cls: clsBoxed, vfn: func(env *cenv) types.Value { return types.Div(lv(env), rv(env)) }}, nil
	}
	return texpr{}, fmt.Errorf("runtime: bad arithmetic op %q", x.Op)
}

// compileCmp compiles a comparison to an int kernel yielding 1 or 0, the
// truth of CmpOp.Eval over the boxed operands. Typed int pairs compare
// exactly; numeric pairs with a float side compare as float64
// (Value.Equal/Compare coerce through Value.Float() identically), and
// NaN's all-false comparisons reproduce CmpOp.Eval's Null handling — with
// an explicit guard for !=, which requires both sides non-Null.
func (tc *tcompiler) compileCmp(x *ir.CmpE) (texpr, error) {
	l, err := tc.compileExpr(x.L)
	if err != nil {
		return texpr{}, err
	}
	r, err := tc.compileExpr(x.R)
	if err != nil {
		return texpr{}, err
	}
	var test boolFn
	switch {
	case l.cls == clsInt && r.cls == clsInt:
		lf, rf := l.ifn, r.ifn
		switch x.Op {
		case algebra.CmpEq:
			test = func(env *cenv) bool { return lf(env) == rf(env) }
		case algebra.CmpNeq:
			test = func(env *cenv) bool { return lf(env) != rf(env) }
		case algebra.CmpLt:
			test = func(env *cenv) bool { return lf(env) < rf(env) }
		case algebra.CmpLte:
			test = func(env *cenv) bool { return lf(env) <= rf(env) }
		case algebra.CmpGt:
			test = func(env *cenv) bool { return lf(env) > rf(env) }
		case algebra.CmpGte:
			test = func(env *cenv) bool { return lf(env) >= rf(env) }
		}
	case l.cls != clsBoxed && r.cls != clsBoxed:
		lf, rf := l.asFloat(), r.asFloat()
		switch x.Op {
		case algebra.CmpEq:
			test = func(env *cenv) bool { return lf(env) == rf(env) }
		case algebra.CmpNeq:
			test = func(env *cenv) bool {
				a, b := lf(env), rf(env)
				return a == a && b == b && a != b
			}
		case algebra.CmpLt:
			test = func(env *cenv) bool { return lf(env) < rf(env) }
		case algebra.CmpLte:
			test = func(env *cenv) bool { return lf(env) <= rf(env) }
		case algebra.CmpGt:
			test = func(env *cenv) bool { return lf(env) > rf(env) }
		case algebra.CmpGte:
			test = func(env *cenv) bool { return lf(env) >= rf(env) }
		}
	default:
		lv, rv := l.box(), r.box()
		op := x.Op
		test = func(env *cenv) bool { return op.Eval(lv(env), rv(env)) }
	}
	if test == nil {
		return texpr{}, fmt.Errorf("runtime: bad comparison op %v", x.Op)
	}
	return texpr{cls: clsInt, ifn: func(env *cenv) int64 {
		if test(env) {
			return 1
		}
		return 0
	}}, nil
}
