package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is an ordered sequence of values: a table row, a map key, or the
// argument vector of a stream event.
type Tuple []Value

// Clone returns a copy of the tuple that shares no storage with t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise strict equality (same kinds, same payloads).
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key is a compact, collision-free encoding of a Tuple, usable as a Go map
// key. The runtime's view maps and the executor's hash joins key on it.
type Key string

// AppendValue appends the injective encoding of one value to dst and
// returns the extended slice. It is the single implementation of the key
// wire format: a kind tag, then the fixed-width payload (length-prefixed
// for strings).
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt, KindBool:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// AppendKey appends the injective encoding of t to dst and returns the
// extended slice. The hot path encodes into a reused scratch buffer with
// AppendKey(buf[:0], t) and probes maps with the zero-allocation
// m[Key(buf)] idiom; a Key string is materialized only when an entry is
// actually inserted.
func AppendKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodeKey encodes a tuple into a Key. The encoding is injective: it tags
// each value with its kind and length-prefixes strings, so distinct tuples
// never encode to the same Key. It is AppendKey plus a fresh allocation;
// hot paths should encode into a scratch buffer with AppendKey instead.
func EncodeKey(t Tuple) Key {
	if len(t) == 0 {
		return ""
	}
	// Pre-size: 9 bytes per scalar (1 kind tag + 8 payload); strings may
	// grow the buffer, scalars never do.
	return Key(AppendKey(make([]byte, 0, len(t)*9), t))
}

// DecodeKeyChecked inverts EncodeKey with full bounds validation: it never
// panics on truncated or malformed input and returns an error instead.
// Values decode through the public constructors, so the engine's
// canonicalizations apply (NaN floats become NULL, -0.0 becomes +0.0) and
// the returned tuple is always in the form the runtime could itself have
// produced. Snapshot restore and WAL replay decode through here, where the
// bytes come from disk rather than from our own encoder.
func DecodeKeyChecked(b []byte) (Tuple, error) {
	return AppendDecodedKey(nil, b)
}

// AppendDecodedKey is DecodeKeyChecked into a caller's slab: the decoded
// values are appended to dst, so a run of keys decodes into one allocation
// (plus one per string value). On error dst is returned at its original
// length.
func AppendDecodedKey(dst []Value, b []byte) ([]Value, error) {
	start := len(dst)
	for len(b) > 0 {
		kind := Kind(b[0])
		b = b[1:]
		switch kind {
		case KindNull:
			dst = append(dst, Null)
		case KindInt, KindBool, KindFloat:
			if len(b) < 8 {
				return dst[:start], fmt.Errorf("types: truncated %s key payload", kind)
			}
			bits := binary.LittleEndian.Uint64(b)
			b = b[8:]
			switch kind {
			case KindInt:
				dst = append(dst, NewInt(int64(bits)))
			case KindBool:
				dst = append(dst, NewBool(bits != 0))
			default:
				dst = append(dst, NewFloat(math.Float64frombits(bits)))
			}
		case KindString:
			if len(b) < 4 {
				return dst[:start], fmt.Errorf("types: truncated string key length")
			}
			n := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if n < 0 || n > len(b) {
				return dst[:start], fmt.Errorf("types: string key length %d exceeds remaining %d bytes", n, len(b))
			}
			dst = append(dst, NewString(string(b[:n])))
			b = b[n:]
		default:
			return dst[:start], fmt.Errorf("types: unknown key kind tag 0x%02x", byte(kind))
		}
	}
	return dst, nil
}

// DecodeKey inverts EncodeKey. It is used by snapshots and the debugger to
// render map contents; the hot path never decodes.
func DecodeKey(k Key) Tuple {
	b := []byte(k)
	var out Tuple
	for len(b) > 0 {
		kind := Kind(b[0])
		b = b[1:]
		switch kind {
		case KindNull:
			out = append(out, Null)
		case KindInt:
			out = append(out, NewInt(int64(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case KindBool:
			out = append(out, NewBool(binary.LittleEndian.Uint64(b) != 0))
			b = b[8:]
		case KindFloat:
			out = append(out, NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case KindString:
			n := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			out = append(out, NewString(string(b[:n])))
			b = b[n:]
		default:
			return out
		}
	}
	return out
}
