// Package codegen emits a compiled trigger program as standalone Go source
// — the analogue of the paper's C++ code generation. The generated file has
// no dependencies beyond the standard library (none on this repository):
// maps become native Go maps with specialized key struct types, triggers
// become plain functions of typed arguments, and every expression is
// inlined into straight-line code, exactly the "compact straight-line code
// sequences" the paper describes handing to the native compiler.
//
// The emitted code reproduces the interpreter's value calculus exactly —
// the properties the codegen parity oracle (internal/engine's TestNative*
// tests, which build and run the generated program) pins bitwise:
//
//   - updates drop zero and NaN deltas and delete entries that reach zero,
//     matching runtime.Map.Add's retention rules;
//   - float NULL is NaN (the typed kernels' convention): division guards a
//     zero divisor, != guards NULL operands, and NaN propagates through
//     arithmetic as SQL NULL does;
//   - integer division truncates like types.Div, including when its result
//     flows into a further division;
//   - float map keys normalize -0.0 to +0.0, types.NewFloat's key
//     injectivity rule.
//
// The generated artifact covers map maintenance (the hot path). Ordered
// reads (MIN/MAX extremum lookups and threshold range sums) are a
// read-time concern served by the embedded runtime's ordered index;
// generated code exposes the raw maps, from which a host application can
// derive those answers.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/ir"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// Generate renders prog as a compilable Go file in package pkg. The catalog
// supplies column types for specializing keys and trigger signatures.
//
// Key and parameter types come from the program's static annotations
// (ir.InferTypes) — the same inference that drives the interpreter
// runtime's packed map storage and unboxed kernels — so generated code,
// compiled closures, and the IR agree on every physical type. Programs
// produced by the compiler arrive annotated; bare programs are annotated
// here.
func Generate(prog *ir.Program, cat *schema.Catalog, pkg string) (string, error) {
	g := &gen{prog: prog, cat: cat, kinds: map[string][]types.Kind{}}
	if err := g.loadKinds(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by dbtoaster for query %s; DO NOT EDIT.\n", prog.QueryName)
	fmt.Fprintf(&b, "//\n// Standing query:\n//   %s\n", prog.SQL)
	fmt.Fprintf(&b, "package %s\n\nimport \"math\"\n\n", pkg)

	// Key types and the state struct.
	for _, name := range prog.MapOrder {
		m := prog.Maps[name]
		if m.Arity() > 1 {
			fmt.Fprintf(&b, "type %sKey struct {\n", ident(name))
			for i, k := range g.kinds[name] {
				fmt.Fprintf(&b, "\tK%d %s\n", i, goType(k))
			}
			fmt.Fprintf(&b, "}\n\n")
		}
	}
	fmt.Fprintf(&b, "// State holds every materialized view map of the query.\ntype State struct {\n")
	for _, name := range prog.MapOrder {
		m := prog.Maps[name]
		switch m.Arity() {
		case 0:
			fmt.Fprintf(&b, "\t%s float64\n", ident(name))
		case 1:
			fmt.Fprintf(&b, "\t%s map[%s]float64\n", ident(name), goType(g.kinds[name][0]))
		default:
			fmt.Fprintf(&b, "\t%s map[%sKey]float64\n", ident(name), ident(name))
		}
	}
	fmt.Fprintf(&b, "}\n\n// NewState allocates empty maps.\nfunc NewState() *State {\n\treturn &State{\n")
	for _, name := range prog.MapOrder {
		m := prog.Maps[name]
		switch m.Arity() {
		case 0:
		case 1:
			fmt.Fprintf(&b, "\t\t%s: map[%s]float64{},\n", ident(name), goType(g.kinds[name][0]))
		default:
			fmt.Fprintf(&b, "\t\t%s: map[%sKey]float64{},\n", ident(name), ident(name))
		}
	}
	fmt.Fprintf(&b, "\t}\n}\n\n%s", helpers)

	// Triggers.
	for _, t := range prog.Triggers {
		if err := g.trigger(&b, t); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// helpers is the fixed prelude every generated file carries: the
// interpreter's edge-case calculus (NaN-as-NULL, nullable division,
// -0.0 key normalization) as free functions the inlined expressions call.
// All are emitted unconditionally so generation stays deterministic; the
// blank assignments silence unused errors for queries that need none.
const helpers = `// b2i folds a comparison into the interpreter's int kernel form (1/0).
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// nf normalizes -0.0 to +0.0 before a float lands in a map key — the
// types.NewFloat key-injectivity rule.
func nf(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// fdiv is float division under the NULL calculus: a zero divisor yields
// NaN (the float kernels' NULL), never ±Inf.
func fdiv(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// idiv is integer division carried in float64: truncating like types.Div,
// NaN (NULL) on a zero divisor or NULL operand.
func idiv(a, b float64) float64 {
	if a != a || b != b || b == 0 {
		return math.NaN()
	}
	return float64(int64(a) / int64(b))
}

// fneq is the guarded float !=: NULL (NaN) on either side is unknown, so
// the indicator is 0, not 1.
func fneq(a, b float64) int64 {
	if a == a && b == b && a != b {
		return 1
	}
	return 0
}

var _, _, _, _, _, _ = b2i, nf, fdiv, idiv, fneq, math.NaN

`

type gen struct {
	prog  *ir.Program
	cat   *schema.Catalog
	kinds map[string][]types.Kind // map name → key kinds
	// tmpN numbers generated temporaries; per-generation state so output
	// is deterministic regardless of what generated before.
	tmpN int
}

// loadKinds reads every map's key kinds from the program's static type
// annotations, running ir.InferTypes first when the program arrives bare.
// Generated code needs a concrete native type for every key column, so a
// position inference leaves unknown (KindNull) is an error here — the
// interpreter runtime can fall back to dynamic dispatch for such a
// position, but a Go struct field cannot.
func (g *gen) loadKinds() error {
	annotated := true
	for _, name := range g.prog.MapOrder {
		if g.prog.Maps[name].Arity() > 0 && g.prog.Maps[name].KeyKinds == nil {
			annotated = false
			break
		}
	}
	if !annotated {
		if err := ir.InferTypes(g.prog, g.cat); err != nil {
			return err
		}
	}
	for _, name := range g.prog.MapOrder {
		m := g.prog.Maps[name]
		kinds := make([]types.Kind, m.Arity())
		for i := range m.Keys {
			var kind types.Kind
			if i < len(m.KeyKinds) {
				kind = m.KeyKinds[i]
			}
			if kind == types.KindNull {
				return fmt.Errorf("codegen: cannot infer type of key %s of map %s", m.Keys[i], name)
			}
			kinds[i] = kind
		}
		g.kinds[name] = kinds
	}
	return nil
}

func goType(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "int64"
	case types.KindFloat:
		return "float64"
	case types.KindString:
		return "string"
	case types.KindBool:
		return "bool"
	default:
		return "float64"
	}
}

// ident sanitizes a map name into an exported Go identifier.
func ident(name string) string {
	out := strings.Map(func(r rune) rune {
		if r == '-' || r == '.' {
			return '_'
		}
		return r
	}, name)
	return strings.ToUpper(out[:1]) + out[1:]
}

// argName sanitizes a trigger parameter (@rel_col) into a Go identifier.
func argName(v algebra.Var) string {
	return strings.NewReplacer("@", "arg_", "'", "_").Replace(v)
}

func (g *gen) trigger(b *strings.Builder, t *ir.Trigger) error {
	rel, ok := g.cat.Relation(t.Relation)
	if !ok {
		return fmt.Errorf("codegen: unknown relation %s", t.Relation)
	}
	op := "Insert"
	if !t.Insert {
		op = "Delete"
	}
	var params []string
	argKinds := map[string]types.Kind{}
	for i, p := range t.Params {
		k := rel.Columns[i].Type
		if i < len(t.ParamKinds) && t.ParamKinds[i] != types.KindNull {
			k = t.ParamKinds[i]
		}
		params = append(params, fmt.Sprintf("%s %s", argName(p), goType(k)))
		argKinds[argName(p)] = k
	}
	fmt.Fprintf(b, "// On%s%s handles %s events.\nfunc (s *State) On%s%s(%s) {\n",
		op, ident(rel.Name), t.Name(), op, ident(rel.Name), strings.Join(params, ", "))
	for _, st := range t.Stmts {
		if err := g.stmt(b, st, argKinds, 1); err != nil {
			return err
		}
	}
	fmt.Fprintf(b, "}\n\n")
	return nil
}

func (g *gen) stmt(b *strings.Builder, st *ir.Stmt, kinds map[string]types.Kind, depth int) error {
	indent := strings.Repeat("\t", depth)
	// Loops open scopes; the innermost body applies the update.
	localKinds := kinds
	close := 0
	for _, lp := range st.Loops {
		m := g.prog.Maps[lp.Map]
		mk := g.kinds[lp.Map]
		local := map[string]types.Kind{}
		for k, v := range localKinds {
			local[k] = v
		}
		g.tmpN++
		// Leading underscore keeps generated temporaries out of the IR
		// variable namespace: translate emits names like k1/s0/lv1, which
		// argName passes through verbatim, and a bare k%d would collide.
		kVar := fmt.Sprintf("_k%d", g.tmpN)
		vVar := argName(lp.ValueVar)
		if vVar == "" {
			vVar = "_"
		} else {
			local[vVar] = types.KindFloat
		}
		fmt.Fprintf(b, "%sfor %s, %s := range s.%s {\n", indent, kVar, vVar, ident(lp.Map))
		depth++
		indent = strings.Repeat("\t", depth)
		// Bound-position filters.
		for i, bound := range lp.Bound {
			if bound == nil {
				continue
			}
			x, err := g.expr(bound, local)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%sif %s != %s {\n%s\tcontinue\n%s}\n", indent, keyField(kVar, i, m.Arity()), coerceGo(x.code, x.kind, mk[i]), indent, indent)
		}
		// Free-variable bindings.
		for i, fv := range lp.FreeVars {
			if fv == "" {
				continue
			}
			name := argName(fv)
			fmt.Fprintf(b, "%s%s := %s\n", indent, name, keyField(kVar, i, m.Arity()))
			fmt.Fprintf(b, "%s_ = %s\n", indent, name)
			local[name] = mk[i]
		}
		localKinds = local
		close++
	}
	// Delta and target update. The guard `d == d && d != 0` is
	// runtime.Map.Add's admission: zero deltas (including -0.0) leave the
	// map untouched and NaN deltas (float NULL) are dropped, so retention
	// — which entries exist, and with which bits — matches the
	// interpreter's state bitwise. Entries reaching exactly zero are
	// deleted, as the interpreter deletes them; a scalar target holds its
	// zero in the struct field, and the state dump omits it, matching the
	// interpreter's empty zero-arity map.
	dx, err := g.expr(st.Delta, localKinds)
	if err != nil {
		return err
	}
	deltaExpr := dx.asFloat()
	target := g.prog.Maps[st.Target]
	tn := ident(st.Target)
	switch target.Arity() {
	case 0:
		fmt.Fprintf(b, "%sif d := %s; d == d && d != 0 {\n%s\ts.%s += d\n%s}\n", indent, deltaExpr, indent, tn, indent)
	default:
		keyExpr, err := g.keyExpr(st, localKinds)
		if err != nil {
			return err
		}
		g.tmpN++
		kv := fmt.Sprintf("_t%d", g.tmpN)
		fmt.Fprintf(b, "%s%s := %s\n", indent, kv, keyExpr)
		fmt.Fprintf(b, "%sif d := %s; d == d && d != 0 {\n", indent, deltaExpr)
		fmt.Fprintf(b, "%s\ts.%s[%s] += d\n", indent, tn, kv)
		fmt.Fprintf(b, "%s\tif s.%s[%s] == 0 {\n%s\t\tdelete(s.%s, %s)\n%s\t}\n", indent, tn, kv, indent, tn, kv, indent)
		fmt.Fprintf(b, "%s}\n", indent)
	}
	for i := 0; i < close; i++ {
		depth--
		fmt.Fprintf(b, "%s}\n", strings.Repeat("\t", depth))
	}
	return nil
}

func keyField(kVar string, i, arity int) string {
	if arity == 1 {
		return kVar
	}
	return fmt.Sprintf("%s.K%d", kVar, i)
}

func (g *gen) keyExpr(st *ir.Stmt, kinds map[string]types.Kind) (string, error) {
	m := g.prog.Maps[st.Target]
	mk := g.kinds[st.Target]
	parts := make([]string, len(st.Keys))
	for i, k := range st.Keys {
		x, err := g.expr(k, kinds)
		if err != nil {
			return "", err
		}
		parts[i] = g.keyPart(x, mk[i])
	}
	if m.Arity() == 1 {
		return parts[0], nil
	}
	return fmt.Sprintf("%sKey{%s}", ident(st.Target), strings.Join(parts, ", ")), nil
}

// coerceGo converts a Go expression between numeric kinds.
func coerceGo(expr string, from, to types.Kind) string {
	if from == to {
		return expr
	}
	if to == types.KindFloat && from == types.KindInt {
		return "float64(" + expr + ")"
	}
	if to == types.KindInt && from == types.KindFloat {
		return "int64(" + expr + ")"
	}
	return expr
}

// gexpr is a rendered expression: its Go code, its static kind, and
// whether a KindFloat expression still carries integer semantics. The
// interpreter evaluates integer division through boxed types.Div — a
// truncating, nullable Int — but generated code has to widen the result
// to float64 to represent NULL as NaN; intish records that the float is
// integral-or-NULL so a further division keeps truncating, exactly as
// the boxed value would.
type gexpr struct {
	code   string
	kind   types.Kind
	intish bool
	isNull bool // a NULL constant: comparisons against it fold to false
}

// intSem reports whether the expression has interpreter-integer semantics.
func (x gexpr) intSem() bool { return x.kind == types.KindInt || x.intish }

// asFloat renders the expression as a float64 operand.
func (x gexpr) asFloat() string { return coerceGo(x.code, x.kind, types.KindFloat) }

// expr renders an IR expression.
func (g *gen) expr(e ir.Expr, kinds map[string]types.Kind) (gexpr, error) {
	switch e := e.(type) {
	case *ir.Const:
		switch e.Value.Kind() {
		case types.KindInt:
			return gexpr{code: fmt.Sprintf("%d", e.Value.Int()), kind: types.KindInt}, nil
		case types.KindFloat:
			return gexpr{code: fmt.Sprintf("%g", e.Value.Float()), kind: types.KindFloat}, nil
		case types.KindString:
			return gexpr{code: fmt.Sprintf("%q", e.Value.Str()), kind: types.KindString}, nil
		case types.KindBool:
			return gexpr{code: fmt.Sprintf("%v", e.Value.Bool()), kind: types.KindBool}, nil
		}
		// NULL constants (LEFT OUTER JOIN padding) carry NaN through
		// arithmetic, matching boxed Null propagation; isNull lets CmpE
		// fold comparisons to false, since Null never equals anything.
		return gexpr{code: "math.NaN()", kind: types.KindFloat, isNull: true}, nil
	case *ir.VarRef:
		name := argName(e.Name)
		k, ok := kinds[name]
		if !ok {
			return gexpr{}, fmt.Errorf("codegen: unknown variable %s", e.Name)
		}
		return gexpr{code: name, kind: k}, nil
	case *ir.Lookup:
		m := g.prog.Maps[e.Map]
		mk := g.kinds[e.Map]
		if m.Arity() == 0 {
			return gexpr{code: "s." + ident(e.Map), kind: types.KindFloat}, nil
		}
		parts := make([]string, len(e.Keys))
		for i, k := range e.Keys {
			x, err := g.expr(k, kinds)
			if err != nil {
				return gexpr{}, err
			}
			parts[i] = g.keyPart(x, mk[i])
		}
		if m.Arity() == 1 {
			return gexpr{code: fmt.Sprintf("s.%s[%s]", ident(e.Map), parts[0]), kind: types.KindFloat}, nil
		}
		return gexpr{code: fmt.Sprintf("s.%s[%sKey{%s}]", ident(e.Map), ident(e.Map), strings.Join(parts, ", ")), kind: types.KindFloat}, nil
	case *ir.Arith:
		l, err := g.expr(e.L, kinds)
		if err != nil {
			return gexpr{}, err
		}
		r, err := g.expr(e.R, kinds)
		if err != nil {
			return gexpr{}, err
		}
		if e.Op == '/' {
			// Division is never a raw Go '/': the interpreter's zero
			// divisor yields NULL, and int÷int truncates (types.Div).
			if l.intSem() && r.intSem() {
				return gexpr{code: fmt.Sprintf("idiv(%s, %s)", l.asFloat(), r.asFloat()), kind: types.KindFloat, intish: true}, nil
			}
			return gexpr{code: fmt.Sprintf("fdiv(%s, %s)", l.asFloat(), r.asFloat()), kind: types.KindFloat}, nil
		}
		if l.kind == types.KindFloat || r.kind == types.KindFloat {
			// NaN (NULL) propagates through float + - * as Null does
			// through types.arith; int-semantics survive when both sides
			// have them (the boxed path would have produced an Int).
			return gexpr{
				code:   fmt.Sprintf("(%s %c %s)", l.asFloat(), e.Op, r.asFloat()),
				kind:   types.KindFloat,
				intish: l.intSem() && r.intSem(),
			}, nil
		}
		return gexpr{code: fmt.Sprintf("(%s %c %s)", l.code, e.Op, r.code), kind: types.KindInt}, nil
	case *ir.CmpE:
		l, err := g.expr(e.L, kinds)
		if err != nil {
			return gexpr{}, err
		}
		r, err := g.expr(e.R, kinds)
		if err != nil {
			return gexpr{}, err
		}
		if l.isNull || r.isNull {
			// Every CmpOp.Eval with a Null operand is false: Equal rejects
			// Null outright and the ordering ops guard IsNull.
			return gexpr{code: "0", kind: types.KindInt}, nil
		}
		lc, rc := l.code, r.code
		float := l.kind == types.KindFloat || r.kind == types.KindFloat
		if l.kind != r.kind {
			lc, rc = l.asFloat(), r.asFloat()
			float = true
		}
		if float && e.Op == algebra.CmpNeq {
			// != requires both sides non-NULL; raw Go != would count a
			// NaN operand as a hit.
			return gexpr{code: fmt.Sprintf("fneq(%s, %s)", l.asFloat(), r.asFloat()), kind: types.KindInt}, nil
		}
		op := e.Op.String()
		if op == "=" {
			op = "=="
		}
		return gexpr{code: fmt.Sprintf("b2i(%s %s %s)", lc, op, rc), kind: types.KindInt}, nil
	}
	return gexpr{}, fmt.Errorf("codegen: unknown expression %T", e)
}

// keyPart renders one key component coerced to the map's declared kind,
// normalizing -0.0 on float positions so key injectivity matches the
// interpreter's types.NewFloat boxing.
func (g *gen) keyPart(x gexpr, to types.Kind) string {
	part := coerceGo(x.code, x.kind, to)
	if to == types.KindFloat {
		part = "nf(" + part + ")"
	}
	return part
}

// SortedMapNames returns map names in declaration order (helper for tools).
func SortedMapNames(prog *ir.Program) []string {
	out := append([]string{}, prog.MapOrder...)
	sort.Strings(out)
	return out
}
