package simplify

import (
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/types"
)

func noneBound(algebra.Var) bool { return false }

func boundSet(vars ...algebra.Var) func(algebra.Var) bool {
	set := map[algebra.Var]bool{}
	for _, v := range vars {
		set[v] = true
	}
	return func(v algebra.Var) bool { return set[v] }
}

func TestExpandDistributes(t *testing.T) {
	// (a + b) * (c + d) → 4 monomials
	term := algebra.NewProd(
		algebra.NewSum(algebra.VarVal("a"), algebra.VarVal("b")),
		algebra.NewSum(algebra.VarVal("c"), algebra.VarVal("d")),
	)
	ms := Expand(term)
	if len(ms) != 4 {
		t.Fatalf("monomials = %d, want 4", len(ms))
	}
	if ms[0].String() != "a * c" || ms[3].String() != "b * d" {
		t.Errorf("monomials = %v", ms)
	}
}

func TestExpandFlattensNesting(t *testing.T) {
	term := algebra.NewProd(
		algebra.NewProd(algebra.VarVal("a"), algebra.VarVal("b")),
		algebra.NewSum(algebra.NewSum(algebra.VarVal("c"))),
	)
	ms := Expand(term)
	if len(ms) != 1 || len(ms[0].Factors) != 3 {
		t.Errorf("expand = %v", ms)
	}
}

func TestSimplifyConstantFolding(t *testing.T) {
	// 2 * 3 * R(a) → R(a) * 6
	term := algebra.NewProd(
		algebra.ConstVal(types.NewInt(2)),
		algebra.ConstVal(types.NewInt(3)),
		algebra.NewRel("R", "a"),
	)
	ms := Simplify(term, noneBound)
	if len(ms) != 1 {
		t.Fatalf("ms = %v", ms)
	}
	if got := ms[0].String(); got != "R(a) * 6" {
		t.Errorf("folded = %s", got)
	}
}

func TestSimplifyZeroAnnihilates(t *testing.T) {
	term := algebra.NewProd(algebra.Zero(), algebra.NewRel("R", "a"))
	if ms := Simplify(term, noneBound); len(ms) != 0 {
		t.Errorf("zero monomial survived: %v", ms)
	}
	// Constant false comparison annihilates too.
	term = algebra.NewProd(
		&algebra.Cmp{Op: algebra.CmpEq, L: &algebra.VConst{Value: types.NewInt(1)}, R: &algebra.VConst{Value: types.NewInt(2)}},
		algebra.NewRel("R", "a"),
	)
	if ms := Simplify(term, noneBound); len(ms) != 0 {
		t.Errorf("false cmp survived: %v", ms)
	}
}

func TestSimplifyTrueCmpDrops(t *testing.T) {
	term := algebra.NewProd(
		&algebra.Cmp{Op: algebra.CmpLt, L: &algebra.VConst{Value: types.NewInt(1)}, R: &algebra.VConst{Value: types.NewInt(2)}},
		algebra.NewRel("R", "a"),
	)
	ms := Simplify(term, noneBound)
	if len(ms) != 1 || ms[0].String() != "R(a)" {
		t.Errorf("ms = %v", ms)
	}
}

func TestSimplifyUnitsDropped(t *testing.T) {
	term := algebra.NewProd(algebra.One(), algebra.NewRel("R", "a"), algebra.One())
	ms := Simplify(term, noneBound)
	if len(ms) != 1 || len(ms[0].Factors) != 1 {
		t.Errorf("ms = %v", ms)
	}
}

func TestEqualityPropagationVarVar(t *testing.T) {
	// [x = p] * S(x, c) * x   with p bound (event param), x summed:
	// → S(p, c) * p — the scan elision at the heart of the paper.
	term := algebra.NewProd(
		algebra.EqVarVar("x", "p"),
		algebra.NewRel("S", "x", "c"),
		algebra.VarVal("x"),
	)
	ms := Simplify(term, boundSet("p"))
	if len(ms) != 1 {
		t.Fatalf("ms = %v", ms)
	}
	if got := ms[0].String(); got != "S(p,c) * p" {
		t.Errorf("propagated = %s", got)
	}
}

func TestEqualityPropagationKeepsBothBound(t *testing.T) {
	// [p = q] with both bound stays as a runtime check.
	term := algebra.NewProd(algebra.EqVarVar("p", "q"), algebra.NewRel("R", "a"))
	ms := Simplify(term, boundSet("p", "q"))
	if len(ms) != 1 || len(ms[0].Factors) != 2 {
		t.Errorf("ms = %v", ms)
	}
}

func TestEqualityPropagationVarConst(t *testing.T) {
	// [x = 5] * x  → 5 (x eliminable, not positional)
	term := algebra.NewProd(
		algebra.EqVarConst("x", types.NewInt(5)),
		algebra.VarVal("x"),
	)
	ms := Simplify(term, noneBound)
	if len(ms) != 1 || ms[0].String() != "5" {
		t.Errorf("ms = %v", ms)
	}
}

func TestEqualityPropagationConstIntoRelBlocked(t *testing.T) {
	// [x = 5] * R(x): x is positional; the filter must remain.
	term := algebra.NewProd(
		algebra.EqVarConst("x", types.NewInt(5)),
		algebra.NewRel("R", "x"),
	)
	ms := Simplify(term, noneBound)
	if len(ms) != 1 || len(ms[0].Factors) != 2 {
		t.Errorf("ms = %v", ms)
	}
}

func TestReflexiveCmp(t *testing.T) {
	eq := algebra.EqVarVar("x", "x")
	ms := Simplify(algebra.NewProd(eq, algebra.NewRel("R", "x")), boundSet("x"))
	if len(ms) != 1 || ms[0].String() != "R(x)" {
		t.Errorf("[x=x] not dropped: %v", ms)
	}
	neq := &algebra.Cmp{Op: algebra.CmpNeq, L: &algebra.VVar{Name: "x"}, R: &algebra.VVar{Name: "x"}}
	if ms := Simplify(algebra.NewProd(neq, algebra.NewRel("R", "x")), boundSet("x")); len(ms) != 0 {
		t.Errorf("[x!=x] not annihilated: %v", ms)
	}
}

func TestLiftElimination(t *testing.T) {
	// [v := a+1] with v unused: Σ_v [v:=e] = 1, so the lift drops.
	lift := &algebra.Lift{Var: "v", Expr: &algebra.VArith{Op: '+', L: &algebra.VVar{Name: "a"}, R: &algebra.VConst{Value: types.NewInt(1)}}}
	term := algebra.NewProd(lift, algebra.NewRel("R", "a"))
	ms := Simplify(term, noneBound)
	if len(ms) != 1 || ms[0].String() != "R(a)" {
		t.Errorf("lift not eliminated: %v", ms)
	}
	// But a lift whose var is an output (bound) must stay.
	ms = Simplify(term, boundSet("v"))
	if len(ms) != 1 || len(ms[0].Factors) != 2 {
		t.Errorf("output lift wrongly eliminated: %v", ms)
	}
	// And a lift whose var is used elsewhere must stay.
	term = algebra.NewProd(lift, algebra.NewRel("R", "a"), algebra.VarVal("v"))
	ms = Simplify(term, noneBound)
	if len(ms) != 1 || len(ms[0].Factors) != 3 {
		t.Errorf("used lift wrongly eliminated: %v", ms)
	}
}

func TestFoldVal(t *testing.T) {
	x := &algebra.VVar{Name: "x"}
	c := func(n int64) algebra.ValExpr { return &algebra.VConst{Value: types.NewInt(n)} }
	cases := []struct {
		in   algebra.ValExpr
		want string
	}{
		{&algebra.VArith{Op: '+', L: c(2), R: c(3)}, "5"},
		{&algebra.VArith{Op: '*', L: c(4), R: c(5)}, "20"},
		{&algebra.VArith{Op: '+', L: c(0), R: x}, "x"},
		{&algebra.VArith{Op: '+', L: x, R: c(0)}, "x"},
		{&algebra.VArith{Op: '-', L: x, R: c(0)}, "x"},
		{&algebra.VArith{Op: '*', L: c(1), R: x}, "x"},
		{&algebra.VArith{Op: '*', L: x, R: c(1)}, "x"},
		{&algebra.VArith{Op: '*', L: c(0), R: x}, "0"},
		{&algebra.VArith{Op: '/', L: x, R: c(1)}, "x"},
		{&algebra.VArith{Op: '/', L: c(0), R: x}, "0"},
		{&algebra.VArith{Op: '+', L: &algebra.VArith{Op: '*', L: c(2), R: c(3)}, R: x}, "(6+x)"},
	}
	for _, cse := range cases {
		if got := FoldVal(cse.in).String(); got != cse.want {
			t.Errorf("FoldVal(%s) = %s, want %s", cse.in, got, cse.want)
		}
	}
	// Division by zero must not fold (NULL at runtime).
	div0 := &algebra.VArith{Op: '/', L: c(1), R: c(0)}
	if _, ok := FoldVal(div0).(*algebra.VConst); ok {
		t.Error("1/0 folded to a constant")
	}
}

func TestSimplifyChainPropagation(t *testing.T) {
	// Delta of the paper query for insert R(pa, pb):
	// [x=pa][y=pb] S(y,c) T(c,d) (x*d) → S(pb,c) T(c,d) (pa*d)
	term := algebra.NewProd(
		algebra.EqVarVar("x", "pa"),
		algebra.EqVarVar("y", "pb"),
		algebra.NewRel("S", "y", "c"),
		algebra.NewRel("T", "c", "d"),
		&algebra.Val{Expr: &algebra.VArith{Op: '*', L: &algebra.VVar{Name: "x"}, R: &algebra.VVar{Name: "d"}}},
	)
	ms := Simplify(term, boundSet("pa", "pb"))
	if len(ms) != 1 {
		t.Fatalf("ms = %v", ms)
	}
	got := ms[0].String()
	// The value factor x*d splits into separate factors (factorization
	// rule), with x renamed to pa.
	if got != "S(pb,c) * T(c,d) * pa * d" {
		t.Errorf("chain propagation = %s", got)
	}
}

func TestMulValFactorSplits(t *testing.T) {
	term := &algebra.Val{Expr: &algebra.VArith{Op: '*',
		L: &algebra.VVar{Name: "a"},
		R: &algebra.VArith{Op: '*', L: &algebra.VVar{Name: "b"}, R: &algebra.VVar{Name: "c"}}}}
	ms := Simplify(algebra.NewProd(term, algebra.NewRel("R", "a", "b", "c")), boundSet())
	if len(ms) != 1 || len(ms[0].Factors) != 4 {
		t.Errorf("split = %v", ms)
	}
	// Non-multiplicative arithmetic stays intact.
	add := &algebra.Val{Expr: &algebra.VArith{Op: '+', L: &algebra.VVar{Name: "a"}, R: &algebra.VVar{Name: "b"}}}
	ms = Simplify(algebra.NewProd(add, algebra.NewRel("R", "a", "b")), boundSet())
	if len(ms) != 1 || len(ms[0].Factors) != 2 {
		t.Errorf("addition wrongly split: %v", ms)
	}
}

func TestSimplifyEmptyMonomialIsOne(t *testing.T) {
	ms := Simplify(algebra.One(), noneBound)
	if len(ms) != 1 || ms[0].String() != "1" {
		t.Errorf("ms = %v", ms)
	}
	if len(ms[0].Factors) != 0 {
		// A fully-eliminated monomial keeps no factors and renders as 1.
		t.Errorf("factors = %v", ms[0].Factors)
	}
}

func TestSimplifyInclusionExclusion(t *testing.T) {
	// OR lowering: a + b - a*b. With a=[p=1], b=[q=2] all three terms
	// survive; with b=[p=2] the product pins p to two distinct constants
	// and is annihilated.
	a := algebra.EqVarConst("p", types.NewInt(1))
	for _, tc := range []struct {
		b    algebra.Term
		want int
	}{
		{algebra.EqVarConst("q", types.NewInt(2)), 3},
		{algebra.EqVarConst("p", types.NewInt(2)), 2},
	} {
		term := algebra.NewSum(a, tc.b,
			algebra.NewProd(algebra.ConstVal(types.NewInt(-1)), a, tc.b))
		if ms := Simplify(term, boundSet("p", "q")); len(ms) != tc.want {
			t.Errorf("b = %v: %d monomials, want %d: %v", tc.b, len(ms), tc.want, ms)
		}
	}
}

func TestSimplifyContradictoryEqualities(t *testing.T) {
	eq := func(l, r algebra.ValExpr) algebra.Term { return &algebra.Cmp{Op: algebra.CmpEq, L: l, R: r} }
	x := &algebra.VVar{Name: "x"}
	str := func(s string) algebra.ValExpr { return &algebra.VConst{Value: types.NewString(s)} }
	num := func(v types.Value) algebra.ValExpr { return &algebra.VConst{Value: v} }
	rel := algebra.NewRel("R", "x") // x is positional: propagation cannot remove the equalities
	for _, tc := range []struct {
		name string
		a, b algebra.Term
		zero bool
	}{
		{"distinct strings", eq(x, str("MFGR#1")), eq(x, str("MFGR#2")), true},
		{"constant on the left", eq(str("MFGR#1"), x), eq(x, str("MFGR#2")), true},
		{"same constant", eq(x, str("MFGR#1")), eq(x, str("MFGR#1")), false},
		{"int and equal float", eq(x, num(types.NewInt(1))), eq(x, num(types.NewFloat(1))), false},
		{"different variables", eq(x, str("a")), eq(&algebra.VVar{Name: "y"}, str("b")), false},
		{"inequality", eq(x, str("a")), &algebra.Cmp{Op: algebra.CmpNeq, L: x, R: str("b")}, false},
	} {
		_, zero := SimplifyMonomial(Monomial{Factors: []algebra.Term{tc.a, tc.b, rel}}, boundSet("x", "y"))
		if zero != tc.zero {
			t.Errorf("%s: annihilated = %v, want %v", tc.name, zero, tc.zero)
		}
	}
}
