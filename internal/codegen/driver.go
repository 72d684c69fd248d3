// Driver emission: the second generated file that turns the query state
// of Generate's output into a one-shot program. It reads an event stream
// on stdin and writes a state dump to stdout at every marker — the
// codegen parity oracle internal/engine's tests build and run against the
// compiled-closure engine (see the emitted doc comment for the format).
//
// Like the query file, the driver depends only on the standard library.
package codegen

import (
	"fmt"
	"strings"

	"dbtoaster/internal/ir"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// RelSpec describes one relation of the driver's dispatch table: its
// name, the per-column kinds events are encoded with, and which trigger
// directions exist.
type RelSpec struct {
	Name      string
	Kinds     []types.Kind
	HasInsert bool
	HasDelete bool
}

// MapSpec describes one view map of the dump layout, in prog.MapOrder.
// KeyKinds is empty for a zero-arity (scalar) map.
type MapSpec struct {
	Name     string
	KeyKinds []types.Kind
}

// Spec is the wire contract between a generated driver and whoever feeds
// it. Both sides derive it from the same annotated program, so indices,
// kinds, and map order agree by construction.
type Spec struct {
	Rels []RelSpec
	Maps []MapSpec
}

// RelIndex resolves a relation name (case-insensitive, like the catalog)
// to its wire index, or -1 when the program has no trigger for it.
func (s *Spec) RelIndex(name string) int {
	for i, r := range s.Rels {
		if strings.EqualFold(r.Name, name) {
			return i
		}
	}
	return -1
}

// ProgramSpec derives the wire contract from an annotated program. The
// relation table lists trigger relations in first-appearance order; both
// triggers of a relation must agree on parameter kinds (they are inferred
// from the same columns, so a mismatch is a compiler bug surfaced here).
func ProgramSpec(prog *ir.Program, cat *schema.Catalog) (*Spec, error) {
	g := &gen{prog: prog, cat: cat, kinds: map[string][]types.Kind{}}
	if err := g.loadKinds(); err != nil {
		return nil, err
	}
	spec := &Spec{}
	index := map[string]int{}
	for _, t := range prog.Triggers {
		rel, ok := cat.Relation(t.Relation)
		if !ok {
			return nil, fmt.Errorf("codegen: unknown relation %s", t.Relation)
		}
		kinds := make([]types.Kind, len(t.Params))
		for i := range t.Params {
			kinds[i] = rel.Columns[i].Type
			if i < len(t.ParamKinds) && t.ParamKinds[i] != types.KindNull {
				kinds[i] = t.ParamKinds[i]
			}
		}
		idx, seen := index[rel.Name]
		if !seen {
			idx = len(spec.Rels)
			index[rel.Name] = idx
			spec.Rels = append(spec.Rels, RelSpec{Name: rel.Name, Kinds: kinds})
		} else {
			prev := spec.Rels[idx]
			for i := range kinds {
				if i >= len(prev.Kinds) || prev.Kinds[i] != kinds[i] {
					return nil, fmt.Errorf("codegen: triggers of %s disagree on parameter kinds", rel.Name)
				}
			}
		}
		if t.Insert {
			spec.Rels[idx].HasInsert = true
		} else {
			spec.Rels[idx].HasDelete = true
		}
	}
	for _, name := range prog.MapOrder {
		spec.Maps = append(spec.Maps, MapSpec{Name: name, KeyKinds: g.kinds[name]})
	}
	return spec, nil
}

// driverStatic is the query-independent part of every emitted driver: the
// stream loop and the scalar wire codecs. Kept as one literal so the
// emitted file reads as ordinary hand-written Go.
const driverStatic = `// state is the query state the event stream drives.
var state = NewState()

// main applies the event stream on stdin and writes a state dump to stdout
// at every marker. Records: 'I' insert or 'D' delete, then a u8 relation
// index and the relation's columns in wire form; 'S' dump marker. A dump
// is, per map in declaration order, a u64 entry count, then per entry the
// key fields in wire form and a float64 value. Wire forms are
// little-endian: int64 and float64 8 bytes, strings u32 length + bytes,
// bools one byte. A malformed stream exits 1 with the reason on stderr.
func main() {
	in, err := io.ReadAll(os.Stdin)
	if err != nil {
		die(err)
	}
	var out []byte
	for off := 0; off < len(in); {
		op := in[off]
		off++
		switch op {
		case 'I', 'D':
			if err := apply(in, &off, op == 'I'); err != nil {
				die(err)
			}
		case 'S':
			out = dump(out)
		default:
			die(fmt.Errorf("unknown record %q", op))
		}
	}
	if _, err := os.Stdout.Write(out); err != nil {
		die(err)
	}
}

// die reports err on stderr and exits 1.
func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func readI64(p []byte, off *int) (int64, error) {
	if *off+8 > len(p) {
		return 0, errTruncated
	}
	v := int64(binary.LittleEndian.Uint64(p[*off:]))
	*off += 8
	return v, nil
}

func readF64(p []byte, off *int) (float64, error) {
	if *off+8 > len(p) {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p[*off:]))
	*off += 8
	return v, nil
}

func readStr(p []byte, off *int) (string, error) {
	if *off+4 > len(p) {
		return "", errTruncated
	}
	n := int(binary.LittleEndian.Uint32(p[*off:]))
	*off += 4
	if n < 0 || *off+n > len(p) {
		return "", errTruncated
	}
	v := string(p[*off : *off+n])
	*off += n
	return v, nil
}

func readBool(p []byte, off *int) (bool, error) {
	if *off+1 > len(p) {
		return false, errTruncated
	}
	v := p[*off] != 0
	*off++
	return v, nil
}

var errTruncated = errors.New("truncated record")

func putU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

func putI64(b []byte, v int64) []byte { return putU64(b, uint64(v)) }

func putF64(b []byte, v float64) []byte { return putU64(b, math.Float64bits(v)) }

func putStr(b []byte, v string) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(len(v)))
	return append(append(b, w[:]...), v...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

`

// GenerateDriver renders the driver for prog as a second file of the same
// package main that Generate(prog, cat, "main") produces.
func GenerateDriver(prog *ir.Program, cat *schema.Catalog) (string, error) {
	spec, err := ProgramSpec(prog, cat)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by dbtoaster for query %s; DO NOT EDIT.\n", prog.QueryName)
	fmt.Fprintf(&b, "//\n// Driver: applies an event stream and dumps the state at each marker.\n")
	fmt.Fprintf(&b, "package main\n\n")
	fmt.Fprintf(&b, "import (\n\t\"encoding/binary\"\n\t\"errors\"\n\t\"fmt\"\n\t\"io\"\n\t\"math\"\n\t\"os\"\n)\n\n")
	b.WriteString(driverStatic)
	emitApply(&b, spec)
	emitDump(&b, spec)
	return b.String(), nil
}

// handlerCall renders the typed trigger invocation for one relation, or a
// discard statement when the program has no trigger for that direction.
func handlerCall(r RelSpec, insert bool, vars []string) string {
	has := r.HasInsert
	op := "Insert"
	if !insert {
		has = r.HasDelete
		op = "Delete"
	}
	if !has {
		// No trigger for this direction: the interpreter ignores the
		// event, so the driver discards the decoded columns.
		if len(vars) == 0 {
			return "// no " + strings.ToLower(op) + " trigger"
		}
		return fmt.Sprintf("_ = []interface{}{%s} // no %s trigger", strings.Join(vars, ", "), strings.ToLower(op))
	}
	return fmt.Sprintf("state.On%s%s(%s)", op, ident(r.Name), strings.Join(vars, ", "))
}

// emitApply renders the event decoder: typed, offset-based decoding of
// one record straight into the trigger handlers, no boxing.
func emitApply(b *strings.Builder, spec *Spec) {
	fmt.Fprintf(b, "// apply decodes one event record after its op byte and runs the trigger.\nfunc apply(p []byte, off *int, ins bool) error {\n")
	fmt.Fprintf(b, "\tif *off >= len(p) {\n\t\treturn errTruncated\n\t}\n")
	fmt.Fprintf(b, "\trel := p[*off]\n\t*off++\n")
	fmt.Fprintf(b, "\tswitch rel {\n")
	for i, r := range spec.Rels {
		fmt.Fprintf(b, "\tcase %d: // %s\n", i, r.Name)
		vars := make([]string, len(r.Kinds))
		for j, k := range r.Kinds {
			vars[j] = fmt.Sprintf("v%d", j)
			fmt.Fprintf(b, "\t\t%s, err := %s(p, off)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", vars[j], readFn(k))
		}
		fmt.Fprintf(b, "\t\tif ins {\n\t\t\t%s\n\t\t} else {\n\t\t\t%s\n\t\t}\n",
			handlerCall(r, true, vars), handlerCall(r, false, vars))
	}
	fmt.Fprintf(b, "\tdefault:\n\t\treturn fmt.Errorf(\"unknown relation index %%d\", rel)\n\t}\n\treturn nil\n}\n\n")
}

// emitDump renders the state dump: per map in declaration order, entry
// count then entries (key fields in wire form, float64 value). A scalar
// map contributes one entry when non-zero and none otherwise — the same
// retention the interpreter's zero-arity map exhibits.
func emitDump(b *strings.Builder, spec *Spec) {
	fmt.Fprintf(b, "// dump appends the state dump to body.\nfunc dump(body []byte) []byte {\n")
	for _, ms := range spec.Maps {
		n := ident(ms.Name)
		switch len(ms.KeyKinds) {
		case 0:
			fmt.Fprintf(b, "\tif state.%s != 0 {\n\t\tbody = putU64(body, 1)\n\t\tbody = putF64(body, state.%s)\n\t} else {\n\t\tbody = putU64(body, 0)\n\t}\n", n, n)
		case 1:
			fmt.Fprintf(b, "\tbody = putU64(body, uint64(len(state.%s)))\n", n)
			fmt.Fprintf(b, "\tfor k, v := range state.%s {\n\t\tbody = %s(body, k)\n\t\tbody = putF64(body, v)\n\t}\n", n, putFn(ms.KeyKinds[0]))
		default:
			fmt.Fprintf(b, "\tbody = putU64(body, uint64(len(state.%s)))\n", n)
			fmt.Fprintf(b, "\tfor k, v := range state.%s {\n", n)
			for i, kk := range ms.KeyKinds {
				fmt.Fprintf(b, "\t\tbody = %s(body, k.K%d)\n", putFn(kk), i)
			}
			fmt.Fprintf(b, "\t\tbody = putF64(body, v)\n\t}\n")
		}
	}
	fmt.Fprintf(b, "\treturn body\n}\n")
}

// readFn/putFn name the wire codec for a kind.
func readFn(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "readI64"
	case types.KindFloat:
		return "readF64"
	case types.KindString:
		return "readStr"
	case types.KindBool:
		return "readBool"
	default:
		return "readF64"
	}
}

func putFn(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "putI64"
	case types.KindFloat:
		return "putF64"
	case types.KindString:
		return "putStr"
	case types.KindBool:
		return "putBool"
	default:
		return "putF64"
	}
}
