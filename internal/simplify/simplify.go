// Package simplify implements DBToaster's map-algebra simplification rules.
// The compiler normalizes delta terms into polynomials (sums of monomials:
// flat factor lists), then simplifies each monomial:
//
//   - constant folding of scalar arithmetic and constant comparisons
//   - unit elimination (×1 dropped, ×0 annihilates the monomial)
//   - contradiction: [x = c1] * [x = c2] with distinct constants is 0
//   - equality propagation: an equality [x = y] binding an eliminable
//     variable is removed by renaming, which is what elides scans when a
//     delta replaces a relation atom with event parameters
//   - trivial lift elimination (a lifted variable used nowhere else
//     marginalizes to 1)
//
// The remaining paper rules — factorization (sum(a·D) = a·sum(D)) and
// product decomposition into connected components (join elimination) —
// operate across a monomial's factor graph and live in the compiler's
// materialization step, which consumes the monomials produced here.
package simplify

import (
	"dbtoaster/internal/algebra"
	"dbtoaster/internal/types"
)

// Monomial is a flat product of factors: no Sum or Prod nodes at top level
// (AggSum factors stay opaque). The empty monomial denotes the constant 1.
type Monomial struct {
	Factors []algebra.Term
}

// Term re-assembles the monomial into an algebra term.
func (m Monomial) Term() algebra.Term {
	switch len(m.Factors) {
	case 0:
		return algebra.One()
	case 1:
		return m.Factors[0]
	default:
		return algebra.NewProd(m.Factors...)
	}
}

// String renders the monomial.
func (m Monomial) String() string { return m.Term().String() }

// Expand normalizes a term into polynomial form: a list of monomials whose
// sum is equivalent to t. Products distribute over sums; nested sums and
// products flatten. AggSum and MapRef factors are kept opaque.
func Expand(t algebra.Term) []Monomial {
	switch t := t.(type) {
	case *algebra.Sum:
		var out []Monomial
		for _, x := range t.Terms {
			out = append(out, Expand(x)...)
		}
		return out
	case *algebra.Prod:
		out := []Monomial{{}}
		for _, f := range t.Factors {
			sub := Expand(f)
			next := make([]Monomial, 0, len(out)*len(sub))
			for _, m := range out {
				for _, s := range sub {
					fs := make([]algebra.Term, 0, len(m.Factors)+len(s.Factors))
					fs = append(fs, m.Factors...)
					fs = append(fs, s.Factors...)
					next = append(next, Monomial{Factors: fs})
				}
			}
			out = next
		}
		return out
	default:
		return []Monomial{{Factors: []algebra.Term{t}}}
	}
}

// Simplify expands t and simplifies every monomial; bound reports whether a
// variable is externally bound (event parameter or output group variable)
// and therefore not eliminable. Zero monomials are dropped; an empty result
// means t simplified to zero.
func Simplify(t algebra.Term, bound func(algebra.Var) bool) []Monomial {
	var out []Monomial
	for _, m := range Expand(t) {
		sm, zero := SimplifyMonomial(m, bound)
		if !zero {
			out = append(out, sm)
		}
	}
	return out
}

// SimplifyMonomial applies the rule set to one monomial until fixpoint.
// The second result reports annihilation (the monomial is identically 0).
func SimplifyMonomial(m Monomial, bound func(algebra.Var) bool) (Monomial, bool) {
	factors := make([]algebra.Term, 0, len(m.Factors))
	for _, f := range m.Factors {
		factors = splitValFactor(factors, f)
	}
	for {
		changed := false
		// Pass 1: local folding.
		next := factors[:0]
		coef := 1.0
		coefInt := true
		nConsts := 0
		pinned := map[algebra.Var]types.Value{} // x → c for every [x = c] seen
		for _, f := range factors {
			f = foldFactor(f)
			switch f := f.(type) {
			case *algebra.Val:
				if c, ok := algebra.ConstOf(f); ok {
					if !c.Kind().Numeric() {
						// Non-numeric scalar factor: a type error upstream;
						// keep it so evaluation surfaces the problem.
						next = append(next, f)
						continue
					}
					if c.Float() == 0 {
						return Monomial{}, true
					}
					nConsts++
					coef *= c.Float()
					if c.Kind() != types.KindInt {
						coefInt = false
					}
					continue
				}
				next = append(next, f)
			case *algebra.Cmp:
				l, lok := constOfVal(f.L)
				r, rok := constOfVal(f.R)
				if lok && rok {
					changed = true
					if f.Op.Eval(l, r) {
						continue // ×1
					}
					return Monomial{}, true
				}
				if f.Op == algebra.CmpEq && sameVar(f.L, f.R) {
					changed = true
					continue
				}
				if f.Op == algebra.CmpNeq && sameVar(f.L, f.R) {
					return Monomial{}, true
				}
				// [x = c1] * [x = c2] with distinct constants is 0: no
				// binding of x satisfies both.
				if x, c, ok := varEqConst(f); ok {
					if prev, seen := pinned[x]; seen && !prev.Equal(c) {
						return Monomial{}, true
					}
					pinned[x] = c
				}
				next = append(next, f)
			default:
				next = append(next, f)
			}
		}
		factors = next
		if coef != 1 {
			var cv types.Value
			if coefInt {
				cv = types.NewInt(int64(coef))
			} else {
				cv = types.NewFloat(coef)
			}
			factors = append(factors, algebra.ConstVal(cv))
			if nConsts > 1 {
				changed = true // merged several constants into one
			}
		} else if nConsts > 0 {
			changed = true // dropped unit constant(s)
		}

		// Pass 2: equality propagation and lift elimination.
		if propagateOnce(&factors, bound) {
			changed = true
		}
		if !changed {
			return Monomial{Factors: factors}, false
		}
	}
}

// propagateOnce applies at most one variable-eliminating rewrite.
func propagateOnce(factors *[]algebra.Term, bound func(algebra.Var) bool) bool {
	fs := *factors
	for i, f := range fs {
		switch f := f.(type) {
		case *algebra.Cmp:
			if f.Op != algebra.CmpEq {
				continue
			}
			lv, lIsVar := f.L.(*algebra.VVar)
			rv, rIsVar := f.R.(*algebra.VVar)
			switch {
			case lIsVar && rIsVar:
				// [x = y]: rename an eliminable side to the other.
				var from, to algebra.Var
				if !bound(lv.Name) {
					from, to = lv.Name, rv.Name
				} else if !bound(rv.Name) {
					from, to = rv.Name, lv.Name
				} else {
					continue
				}
				*factors = renameAll(removeAt(fs, i), from, to)
				return true
			case lIsVar || rIsVar:
				// [x = e] with constant-or-bound e: substitute the value of
				// e for x if x is eliminable and never used positionally.
				var x algebra.Var
				var e algebra.ValExpr
				if lIsVar {
					x, e = lv.Name, f.R
				} else {
					x, e = rv.Name, f.L
				}
				if bound(x) || !valVarsBound(e, bound, x) {
					continue
				}
				rest := removeAt(fs, i)
				if usedPositionally(rest, x) {
					continue
				}
				*factors = substValAll(rest, x, e)
				return true
			}
		case *algebra.Lift:
			// [x := e] where x is eliminable and unused elsewhere sums out
			// to 1 (a single binding exists).
			if bound(f.Var) {
				continue
			}
			rest := removeAt(fs, i)
			if varUsed(rest, f.Var) {
				continue
			}
			*factors = rest
			return true
		}
	}
	return false
}

// splitValFactor appends f to fs, splitting multiplicative scalar factors
// into their operands: the paper's factorization rule sum(a·D) = a·sum(D)
// relies on a and D being separate factors so that materialization can put
// them on opposite sides of the map boundary.
func splitValFactor(fs []algebra.Term, f algebra.Term) []algebra.Term {
	v, ok := f.(*algebra.Val)
	if !ok {
		return append(fs, f)
	}
	if a, ok := v.Expr.(*algebra.VArith); ok && a.Op == '*' {
		fs = splitValFactor(fs, &algebra.Val{Expr: a.L})
		return splitValFactor(fs, &algebra.Val{Expr: a.R})
	}
	return append(fs, f)
}

// foldFactor folds constants inside a factor's scalar expressions.
func foldFactor(t algebra.Term) algebra.Term {
	switch t := t.(type) {
	case *algebra.Val:
		return &algebra.Val{Expr: FoldVal(t.Expr)}
	case *algebra.Cmp:
		return &algebra.Cmp{Op: t.Op, L: FoldVal(t.L), R: FoldVal(t.R)}
	case *algebra.Lift:
		return &algebra.Lift{Var: t.Var, Expr: FoldVal(t.Expr)}
	default:
		return t
	}
}

// FoldVal folds constant arithmetic and algebraic units in a scalar
// expression (0+x, x·1, x−0, x/1, 0·x, 0/x).
func FoldVal(e algebra.ValExpr) algebra.ValExpr {
	a, ok := e.(*algebra.VArith)
	if !ok {
		return e
	}
	l, r := FoldVal(a.L), FoldVal(a.R)
	lc, lok := constOfVal(l)
	rc, rok := constOfVal(r)
	if lok && rok {
		var v types.Value
		switch a.Op {
		case '+':
			v = types.Add(lc, rc)
		case '-':
			v = types.Sub(lc, rc)
		case '*':
			v = types.Mul(lc, rc)
		case '/':
			v = types.Div(lc, rc)
		}
		if !v.IsNull() {
			return &algebra.VConst{Value: v}
		}
		return &algebra.VArith{Op: a.Op, L: l, R: r}
	}
	isNum := func(v types.Value, f float64) bool { return v.Kind().Numeric() && v.Float() == f }
	switch a.Op {
	case '+':
		if lok && isNum(lc, 0) {
			return r
		}
		if rok && isNum(rc, 0) {
			return l
		}
	case '-':
		if rok && isNum(rc, 0) {
			return l
		}
	case '*':
		if lok && isNum(lc, 1) {
			return r
		}
		if rok && isNum(rc, 1) {
			return l
		}
		if (lok && isNum(lc, 0)) || (rok && isNum(rc, 0)) {
			return &algebra.VConst{Value: types.NewInt(0)}
		}
	case '/':
		if rok && isNum(rc, 1) {
			return l
		}
		if lok && isNum(lc, 0) {
			return &algebra.VConst{Value: types.NewInt(0)}
		}
	}
	return &algebra.VArith{Op: a.Op, L: l, R: r}
}

// --- helpers ---

func constOfVal(e algebra.ValExpr) (types.Value, bool) {
	c, ok := e.(*algebra.VConst)
	if !ok {
		return types.Null, false
	}
	return c.Value, true
}

// varEqConst matches [x = c] or [c = x] with a non-NULL constant (a NULL
// side makes the comparison false on its own; folding leaves it be).
func varEqConst(f *algebra.Cmp) (algebra.Var, types.Value, bool) {
	if f.Op != algebra.CmpEq {
		return "", types.Null, false
	}
	l, r := f.L, f.R
	if _, ok := l.(*algebra.VVar); !ok {
		l, r = r, l
	}
	x, xok := l.(*algebra.VVar)
	c, cok := constOfVal(r)
	if !xok || !cok || c.IsNull() {
		return "", types.Null, false
	}
	return x.Name, c, true
}

func sameVar(l, r algebra.ValExpr) bool {
	lv, lok := l.(*algebra.VVar)
	rv, rok := r.(*algebra.VVar)
	return lok && rok && lv.Name == rv.Name
}

func removeAt(fs []algebra.Term, i int) []algebra.Term {
	out := make([]algebra.Term, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	out = append(out, fs[i+1:]...)
	return out
}

func renameAll(fs []algebra.Term, from, to algebra.Var) []algebra.Term {
	s := map[algebra.Var]algebra.Var{from: to}
	out := make([]algebra.Term, len(fs))
	for i, f := range fs {
		out[i] = algebra.Rename(f, s)
	}
	return out
}

// valVarsBound reports whether every variable of e (other than skip) is
// externally bound, making e safe to substitute.
func valVarsBound(e algebra.ValExpr, bound func(algebra.Var) bool, skip algebra.Var) bool {
	for _, v := range algebra.FreeVars(&algebra.Val{Expr: e}) {
		if v == skip {
			return false // self-referential equality; leave it alone
		}
		if !bound(v) {
			return false
		}
	}
	return true
}

// usedPositionally reports whether x appears in a position that requires a
// variable (relation columns, map keys, AggSum group vars, lift targets) —
// places where a value expression cannot be substituted.
func usedPositionally(fs []algebra.Term, x algebra.Var) bool {
	for _, f := range fs {
		switch f := f.(type) {
		case *algebra.Rel:
			for _, v := range f.Vars {
				if v == x {
					return true
				}
			}
		case *algebra.MapRef:
			for _, v := range f.Keys {
				if v == x {
					return true
				}
			}
		case *algebra.AggSum:
			if algebra.FreeVarSet(f)[x] {
				return true
			}
		case *algebra.Exists, *algebra.ExistsDelta:
			// Exists keys are map-lookup positions after materialization;
			// substitution cannot descend into the opaque body either.
			if algebra.FreeVarSet(f)[x] {
				return true
			}
		case *algebra.Lift:
			if f.Var == x {
				return true
			}
		}
	}
	return false
}

func varUsed(fs []algebra.Term, x algebra.Var) bool {
	for _, f := range fs {
		if algebra.FreeVarSet(f)[x] {
			return true
		}
	}
	return false
}

// substValAll substitutes value expression e for variable x in scalar
// positions (Val, Cmp, Lift expressions). Callers must have established
// via usedPositionally that x has no positional uses.
func substValAll(fs []algebra.Term, x algebra.Var, e algebra.ValExpr) []algebra.Term {
	out := make([]algebra.Term, len(fs))
	for i, f := range fs {
		out[i] = substVal(f, x, e)
	}
	return out
}

func substVal(t algebra.Term, x algebra.Var, e algebra.ValExpr) algebra.Term {
	switch t := t.(type) {
	case *algebra.Val:
		return &algebra.Val{Expr: substValExpr(t.Expr, x, e)}
	case *algebra.Cmp:
		return &algebra.Cmp{Op: t.Op, L: substValExpr(t.L, x, e), R: substValExpr(t.R, x, e)}
	case *algebra.Lift:
		return &algebra.Lift{Var: t.Var, Expr: substValExpr(t.Expr, x, e)}
	default:
		return t
	}
}

func substValExpr(v algebra.ValExpr, x algebra.Var, e algebra.ValExpr) algebra.ValExpr {
	switch v := v.(type) {
	case *algebra.VVar:
		if v.Name == x {
			return e
		}
		return v
	case *algebra.VArith:
		return &algebra.VArith{Op: v.Op, L: substValExpr(v.L, x, e), R: substValExpr(v.R, x, e)}
	default:
		return v
	}
}
