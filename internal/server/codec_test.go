package server

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

func codecCatalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("Mixed", "i:int", "f:float", "s:string", "b:bool"),
		schema.NewRelation("R", "A:int", "B:int"),
	)
}

// referenceParse is the string-based parse the byte-level codec replaced,
// rebuilt from the exported ParseValue and the strings package: the whole
// line is trimmed, cut at single spaces into command, relation and values,
// the values split at '|' and parsed per the column's kind. isDelta is false
// for a line that is not an INSERT or DELETE at all.
func referenceParse(cat *schema.Catalog, line string) (ev stream.Event, isDelta bool, err error) {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	switch {
	case strings.EqualFold(cmd, "INSERT"):
		ev.Op = stream.Insert
	case strings.EqualFold(cmd, "DELETE"):
		ev.Op = stream.Delete
	default:
		return ev, false, nil
	}
	rel, valstr, _ := strings.Cut(rest, " ")
	r, ok := cat.Relation(rel)
	if !ok {
		return ev, true, fmt.Errorf("unknown relation %q", rel)
	}
	if valstr == "" {
		return ev, true, fmt.Errorf("missing values for %s", rel)
	}
	parts := strings.Split(valstr, "|")
	if len(parts) != r.Arity() {
		return ev, true, fmt.Errorf("%s expects %d values, got %d", rel, r.Arity(), len(parts))
	}
	ev.Relation = r.Name
	for i, p := range parts {
		v, err := ParseValue(r.Columns[i].Type, p)
		if err != nil {
			return ev, true, fmt.Errorf("column %s: %w", r.Columns[i].Name, err)
		}
		ev.Args = append(ev.Args, v)
	}
	return ev, true, nil
}

// codecParse is the server's path for one line: trim, cut the command,
// parse the body in place.
func codecParse(p *deltaParser, line []byte) (ev stream.Event, isDelta bool, err error) {
	cmd, rest, _ := bytes.Cut(bytes.TrimSpace(line), space)
	op, ok := deltaOp(cmd)
	if !ok {
		return ev, false, nil
	}
	ev, err = p.parse(op, rest, 1)
	return ev, true, err
}

// FuzzDeltaCodec checks the delta codec two ways. Round trip: an event the
// client renders parses back to the same event, for every kind and the
// awkward values of each. Differential: on an arbitrary line the byte-level
// parser and the string-based reference agree on delta-or-not, on the
// event, and on the error text, whatever relation the parser saw last.
func FuzzDeltaCodec(f *testing.F) {
	f.Add(int64(0), 0.0, "", false, "INSERT R 1|2")
	f.Add(int64(math.MinInt64), math.Copysign(0, -1), "x", true, "DELETE R 1|2|3")
	f.Add(int64(math.MaxInt64), 1e308, "  padded  ", true, "insert mixed  1 | 2.5 | a b | TRUE ")
	f.Add(int64(-7), -1e-308, " ", false, "Delete MIXED 1|2.5||f")
	f.Add(int64(1), math.Inf(1), "a b", false, "INSERT Mixed 9223372036854775808|1|x|true")
	f.Add(int64(1), math.NaN(), "tab\there", true, "INSERT Mixed 1|nan|x|true")
	f.Add(int64(1), 2.5, "é ", true, "INSERT Mixed 1|2.5x|y|true")
	f.Add(int64(1), 2.5, "a|b", true, "INSERT  R 1|2")
	f.Add(int64(1), 2.5, "line\nbreak", true, "INSERT R")
	f.Add(int64(1), 2.5, "", true, "INSERT R ")
	f.Add(int64(1), 2.5, "", true, "INSERT nosuch 1|2")
	f.Add(int64(1), 2.5, "", true, "RESULT main")
	f.Add(int64(1), 2.5, "", true, "INſERT R 1|2") // long s folds to S
	f.Add(int64(1), 2.5, "", true, "INSERT R 1|"+strings.Repeat("0", 40)+"2")
	f.Add(int64(1), 2.5, "", true, "INSERT R \x00\xff|not-a-number")
	f.Add(int64(1), 2.5, "", true, " INSERT R 1|2 ")

	cat := codecCatalog()
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b bool, line string) {
		// (a) parse(append(ev)) == ev.
		for _, op := range []stream.Op{stream.Insert, stream.Delete} {
			ev := stream.Event{Op: op, Relation: "Mixed", Args: types.Tuple{
				types.NewInt(i), types.NewFloat(fl), types.NewString(s), types.NewBool(b)}}
			wire := appendDelta(nil, ev.Op, ev.Relation, ev.Args)
			if wire[len(wire)-1] != '\n' {
				t.Fatalf("rendered %q without its newline", wire)
			}
			got, isDelta, err := codecParse(&deltaParser{cat: cat}, wire[:len(wire)-1])
			switch {
			case !isDelta:
				t.Fatalf("rendered %q is not read as a delta", wire)
			case math.IsNaN(fl) || strings.ContainsAny(s, "|\n"):
				// Not representable on the wire: NaN is NULL, which no float
				// column takes, and the string would change the framing.
			case err != nil:
				t.Fatalf("rendered %q: %v", wire, err)
			default:
				// Fields are trimmed on the way in; nothing else may change.
				ev.Args[2] = types.NewString(strings.TrimSpace(s))
				if got.Op != ev.Op || got.Relation != ev.Relation || !got.Args.Equal(ev.Args) {
					t.Fatalf("rendered %q parsed to %v, want %v", wire, got, ev)
				}
			}
		}

		// (b) the parser against the reference: cold, after another
		// relation's line, and after the same line.
		if strings.Contains(line, "\n") {
			return // the scanner never hands over more than one line
		}
		want, wantDelta, wantErr := referenceParse(cat, line)
		p := &deltaParser{cat: cat}
		for round := 0; round < 3; round++ {
			if round == 1 {
				if _, _, err := codecParse(p, []byte("INSERT R 1|2")); err != nil {
					t.Fatal(err)
				}
			}
			got, gotDelta, gotErr := codecParse(p, []byte(line))
			if gotDelta != wantDelta {
				t.Fatalf("%q: delta = %v, reference %v", line, gotDelta, wantDelta)
			}
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%q: error %v, reference %v", line, gotErr, wantErr)
			}
			if gotErr == nil && gotDelta && (got.Op != want.Op || got.Relation != want.Relation || !got.Args.Equal(want.Args)) {
				t.Fatalf("%q: parsed to %v, reference %v", line, got, want)
			}
		}
	})
}
