// Package types provides the typed value and tuple kernel shared by every
// layer of the system: the SQL front end, the map algebra, the compiled
// trigger runtime, and the baseline query executors.
//
// Values are small immutable scalars (int64, float64, string, bool). They
// are comparable with == (no NaN is ever stored; see NewFloat), so they can
// be used directly as Go map keys, which the runtime relies on for its
// in-memory view maps.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a scalar runtime value. The zero Value is SQL NULL.
//
// Value is comparable: two Values are == iff they have the same kind and
// payload. Mixed-kind numeric equality (1 == 1.0) must go through Equal.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// PosInf is a sentinel that compares greater than every regular value; it
// is used as an upper bound in index range scans and never stored in data.
var PosInf = Value{kind: Kind(255)}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value. NaN is normalized to NULL so that Value
// remains safely comparable and usable as a map key.
func NewFloat(v float64) Value {
	if math.IsNaN(v) {
		return Null
	}
	if v == 0 {
		// Normalize -0.0: it compares equal to +0.0 but has different
		// bits, which would break the key encoding's injectivity.
		v = 0
	}
	return Value{kind: KindFloat, f: v}
}

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload; the value must be KindInt.
func (v Value) Int() int64 { return v.i }

// Float returns the value as float64, converting integers and booleans.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return 0
	}
}

// Str returns the string payload; the value must be KindString.
func (v Value) Str() string { return v.s }

// Bool reports truthiness: non-zero numbers and true booleans are true.
func (v Value) Bool() bool {
	switch v.kind {
	case KindInt, KindBool:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// AppendString appends exactly the bytes of v.String() to dst without the
// intermediate string — the wire codec renders whole requests through it.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	default:
		// String payloads, booleans and NULL render from existing strings.
		return append(dst, v.String()...)
	}
}

// Equal reports SQL equality with numeric kind coercion (1 = 1.0 is true).
// NULL equals nothing, including NULL.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
		}
		return v.Float() == o.Float()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.i == o.i
	default:
		return v == o
	}
}

// Compare returns -1, 0, or +1 ordering v relative to o. NULL sorts first.
// Numeric kinds are mutually comparable; otherwise kinds are ordered by
// Kind then payload, giving a total order usable for sorting and indexing.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			default:
				return 0
			}
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Add returns v + o with numeric promotion (int+int=int, otherwise float).
func Add(v, o Value) Value { return arith(v, o, '+') }

// Sub returns v - o with numeric promotion.
func Sub(v, o Value) Value { return arith(v, o, '-') }

// Mul returns v * o with numeric promotion.
func Mul(v, o Value) Value { return arith(v, o, '*') }

// Div returns v / o. Integer division of ints; division by zero yields NULL.
func Div(v, o Value) Value {
	if v.IsNull() || o.IsNull() {
		return Null
	}
	if v.kind == KindInt && o.kind == KindInt {
		if o.i == 0 {
			return Null
		}
		return NewInt(v.i / o.i)
	}
	d := o.Float()
	if d == 0 {
		return Null
	}
	return NewFloat(v.Float() / d)
}

// Neg returns -v.
func Neg(v Value) Value {
	switch v.kind {
	case KindInt:
		return NewInt(-v.i)
	case KindFloat:
		return NewFloat(-v.f)
	default:
		return Null
	}
}

func arith(v, o Value, op byte) Value {
	if v.IsNull() || o.IsNull() {
		return Null
	}
	if v.kind == KindInt && o.kind == KindInt {
		switch op {
		case '+':
			return NewInt(v.i + o.i)
		case '-':
			return NewInt(v.i - o.i)
		case '*':
			return NewInt(v.i * o.i)
		}
	}
	a, b := v.Float(), o.Float()
	switch op {
	case '+':
		return NewFloat(a + b)
	case '-':
		return NewFloat(a - b)
	case '*':
		return NewFloat(a * b)
	}
	return Null
}
