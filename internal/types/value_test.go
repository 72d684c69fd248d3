package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42); got.Kind() != KindInt || got.Int() != 42 {
		t.Errorf("NewInt(42) = %v", got)
	}
	if got := NewFloat(2.5); got.Kind() != KindFloat || got.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", got)
	}
	if got := NewString("hi"); got.Kind() != KindString || got.Str() != "hi" {
		t.Errorf("NewString = %v", got)
	}
	if got := NewBool(true); got.Kind() != KindBool || !got.Bool() {
		t.Errorf("NewBool(true) = %v", got)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null = %v", Null)
	}
}

func TestNaNNormalizesToNull(t *testing.T) {
	v := NewFloat(math.NaN())
	if !v.IsNull() {
		t.Fatalf("NewFloat(NaN) = %v, want NULL", v)
	}
}

func TestValueFloatCoercion(t *testing.T) {
	if NewInt(3).Float() != 3.0 {
		t.Error("int→float coercion failed")
	}
	if NewBool(true).Float() != 1.0 {
		t.Error("bool→float coercion failed")
	}
	if Null.Float() != 0 {
		t.Error("null→float should be 0")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1.0), true},
		{NewFloat(1.5), NewFloat(1.5), true},
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{NewString("1"), NewInt(1), false},
		{NewBool(true), NewBool(true), true},
		{Null, Null, false}, // SQL: NULL = NULL is not true
		{Null, NewInt(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(-100), -1},
		{NewInt(-100), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got != NewInt(5) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(NewInt(2), NewFloat(0.5)); got != NewFloat(2.5) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Sub(NewInt(2), NewInt(3)); got != NewInt(-1) {
		t.Errorf("2-3 = %v", got)
	}
	if got := Mul(NewFloat(2), NewFloat(3)); got != NewFloat(6) {
		t.Errorf("2*3 = %v", got)
	}
	if got := Div(NewInt(7), NewInt(2)); got != NewInt(3) {
		t.Errorf("7/2 = %v (integer division)", got)
	}
	if got := Div(NewFloat(7), NewInt(2)); got != NewFloat(3.5) {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := Div(NewInt(1), NewInt(0)); !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
	if got := Div(NewFloat(1), NewFloat(0)); !got.IsNull() {
		t.Errorf("1.0/0.0 = %v, want NULL", got)
	}
	if got := Add(Null, NewInt(1)); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
	if got := Neg(NewInt(4)); got != NewInt(-4) {
		t.Errorf("-4 = %v", got)
	}
	if got := Neg(NewFloat(4)); got != NewFloat(-4) {
		t.Errorf("-4.0 = %v", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-7), "-7"},
		{NewFloat(1.25), "1.25"},
		{NewString("x"), "x"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{Null, "NULL"},
		{NewFloat(1e308), "1e+308"},
		{NewInt(math.MinInt64), "-9223372036854775808"},
		{PosInf, "?"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendString([]byte("k="))); got != "k="+c.want {
			t.Errorf("AppendString(%#v) = %q, want %q", c.v, got, "k="+c.want)
		}
	}
}

func TestTupleEqualCompareClone(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := Tuple{NewInt(1), NewString("x")}
	c := Tuple{NewInt(1), NewString("y")}
	if !a.Equal(b) {
		t.Error("equal tuples reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal tuples reported equal")
	}
	if a.Equal(a[:1]) {
		t.Error("prefix tuple reported equal")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 || a.Compare(b) != 0 {
		t.Error("tuple ordering wrong")
	}
	if a.Compare(a[:1]) != 1 || a[:1].Compare(a) != -1 {
		t.Error("length tie-break wrong")
	}
	cl := a.Clone()
	cl[0] = NewInt(99)
	if a[0] != NewInt(1) {
		t.Error("Clone shares storage")
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{NewInt(1), NewString("a")}.String()
	if got != "(1, a)" {
		t.Errorf("Tuple.String() = %q", got)
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return NewInt(int64(r.Intn(2000) - 1000))
	case 1:
		return NewFloat(float64(r.Intn(2000)-1000) / 4)
	case 2:
		letters := []byte("abcdefgh")
		n := r.Intn(6)
		s := make([]byte, n)
		for i := range s {
			s[i] = letters[r.Intn(len(letters))]
		}
		return NewString(string(s))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// RandTuple builds a random tuple; exported for reuse via test helpers in
// other packages is not needed — each package keeps its own generator.
func randTuple(r *rand.Rand) Tuple {
	t := make(Tuple, r.Intn(5))
	for i := range t {
		t[i] = randValue(r)
	}
	return t
}

func TestKeyRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		tup := randTuple(r)
		return DecodeKey(EncodeKey(tup)).Equal(tup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyInjectivityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randTuple(r), randTuple(r)
		ka, kb := EncodeKey(a), EncodeKey(b)
		return (ka == kb) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyAdversarialStrings(t *testing.T) {
	// Strings containing kind-tag bytes and embedded NULs must round-trip.
	tricky := []Tuple{
		{NewString("\x01\x02\x03")},
		{NewString(""), NewString("")},
		{NewString("a\x00b"), NewInt(0)},
		{NewInt(0), NewString("")},
		{NewString("ab"), NewString("c")},
		{NewString("a"), NewString("bc")},
	}
	seen := map[Key]Tuple{}
	for _, tup := range tricky {
		k := EncodeKey(tup)
		if got := DecodeKey(k); !got.Equal(tup) {
			t.Errorf("round trip %v → %v", tup, got)
		}
		if prev, dup := seen[k]; dup && !prev.Equal(tup) {
			t.Errorf("collision: %v and %v share key", prev, tup)
		}
		seen[k] = tup
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b, c := randValue(r), randValue(r), randValue(r)
		// antisymmetry
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// transitivity (on the ≤ relation)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
