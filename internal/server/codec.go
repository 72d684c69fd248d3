package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// The wire codec for deltas: one renderer (the client's) and one parser
// (the server's) for the lines
//
//	INSERT <relation> v1|v2|...
//	DELETE <relation> v1|v2|...
//
// Both work on byte slices the caller reuses, so a request costs its bytes
// and — on the server — one slab of values, not a string per field.

// maxBatch bounds "BATCH <n>". The body cannot be skipped cheaply and is
// buffered whole before it is committed, so n is capped where the
// buffering is still tens of megabytes.
const maxBatch = 1 << 20

// appendDelta appends one delta line, newline included, to dst. Values are
// rendered per Value.String.
func appendDelta(dst []byte, op stream.Op, rel string, vals []types.Value) []byte {
	if op == stream.Delete {
		dst = append(dst, "DELETE "...)
	} else {
		dst = append(dst, "INSERT "...)
	}
	dst = append(dst, rel...)
	dst = append(dst, ' ')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = v.AppendString(dst)
	}
	return append(dst, '\n')
}

// The protocol's separators: one space between command, relation and
// values; '|' between values.
var space, pipe = []byte(" "), []byte("|")

// deltaOp recognizes the two delta commands, in any letter case.
func deltaOp(cmd []byte) (stream.Op, bool) {
	switch {
	case bytes.EqualFold(cmd, []byte("INSERT")):
		return stream.Insert, true
	case bytes.EqualFold(cmd, []byte("DELETE")):
		return stream.Delete, true
	}
	return 0, false
}

// deltaParser turns delta lines into events. It is one connection's state:
// rel remembers the last relation resolved, so a run of lines on one
// relation resolves it once, and slab is the current request's values.
type deltaParser struct {
	cat  *schema.Catalog
	rel  *schema.Relation
	slab []types.Value
}

// parse parses the body of a delta line — "<relation> v1|v2|..." — into an
// event whose Relation is the catalog's spelling and whose Args sit in the
// request's slab. remaining is how many lines the request may still bring,
// this one included; it sizes a new slab. A slab is never reused for a
// later request: the sharded runtime's workers queue events and may hold
// Args after the request is acknowledged.
func (p *deltaParser) parse(op stream.Op, body []byte, remaining int) (stream.Event, error) {
	name, vals, _ := bytes.Cut(body, space)
	r := p.rel
	if r == nil || string(name) != r.Name {
		var ok bool
		if r, ok = p.cat.RelationBytes(name); !ok {
			return stream.Event{}, fmt.Errorf("unknown relation %q", name)
		}
		p.rel = r
	}
	if len(vals) == 0 {
		return stream.Event{}, fmt.Errorf("missing values for %s", name)
	}
	arity := r.Arity()
	if n := bytes.Count(vals, pipe) + 1; n != arity {
		return stream.Event{}, fmt.Errorf("%s expects %d values, got %d", name, arity, n)
	}
	if cap(p.slab)-len(p.slab) < arity {
		// A batch longer than maxSessionEvents takes further slabs as it goes.
		p.slab = make([]types.Value, 0, arity*min(remaining, maxSessionEvents))
	}
	start := len(p.slab)
	for _, col := range r.Columns {
		var field []byte
		field, vals, _ = bytes.Cut(vals, pipe)
		v, err := parseField(col.Type, field)
		if err != nil {
			p.slab = p.slab[:start]
			return stream.Event{}, fmt.Errorf("column %s: %w", col.Name, err)
		}
		p.slab = append(p.slab, v)
	}
	// The capacity stops at the event's own values: appending to Args must
	// never write into the next event's.
	return stream.Event{Op: op, Relation: r.Name, Args: p.slab[start:len(p.slab):len(p.slab)]}, nil
}

// parseField parses one field of a delta line straight from the read
// buffer. Only a string column's value is copied out of it.
func parseField(kind types.Kind, field []byte) (types.Value, error) {
	field = bytes.TrimSpace(field)
	if kind == types.KindString {
		return types.NewString(string(field)), nil
	}
	// strconv copies what it keeps for an error, so the conversion does not
	// escape and costs no allocation for fields of ordinary length.
	return parseScalar(kind, string(field))
}

// ParseValue parses one literal of the given kind. Every kind trims
// surrounding whitespace — the protocol's separators are '|' and newline,
// so "a| x " means the string "x", not " x "; an empty (or all-blank)
// field is the empty string.
func ParseValue(kind types.Kind, s string) (types.Value, error) {
	s = strings.TrimSpace(s)
	if kind == types.KindString {
		return types.NewString(s), nil
	}
	return parseScalar(kind, s)
}

// parseScalar parses a trimmed literal of a non-string kind.
func parseScalar(kind types.Kind, s string) (types.Value, error) {
	switch kind {
	case types.KindInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(n), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f), nil
	case types.KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(b), nil
	}
	return types.Null, fmt.Errorf("unsupported kind %s", kind)
}
