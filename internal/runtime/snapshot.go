package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dbtoaster/internal/types"
)

// Snapshot format: the paper's architecture keeps a "main-memory database
// snapshot" beside the continuous queries; Snapshot/Restore serialize the
// full map state so a standing query can be checkpointed and resumed
// without replaying its stream.
//
//	magic "DBT2"
//	uint64 WAL watermark (sequence number the state covers; 0 = none)
//	uint32 map count
//	per map: uint32 name length, name bytes,
//	         uint64 entry count,
//	         per entry: uint32 key length, encoded key bytes, float64 value
//
// All integers little-endian; keys use the types.EncodeKey wire form.
// Entries are written in ascending encoded-key order, so two snapshots of
// identical state are byte-identical regardless of Go map iteration order
// — the property the crash-recovery fault harness asserts on.
const (
	snapshotMagic = "DBT2"

	// maxSnapshotStr bounds name/key lengths read from a snapshot so a
	// corrupted length field cannot demand a multi-gigabyte allocation.
	maxSnapshotStr = 1 << 20
)

// Snapshot writes the engine's complete map state (watermark 0).
func (e *Engine) Snapshot(w io.Writer) error { return e.SnapshotAt(w, 0) }

// SnapshotAt writes the engine's complete map state tagged with a WAL
// watermark.
func (e *Engine) SnapshotAt(w io.Writer, watermark uint64) error {
	return WriteSnapshot(w, watermark, e.prog.MapOrder, func(name string, visit func(types.Tuple, float64)) {
		e.maps[name].Scan(visit)
	})
}

// Restore replaces the engine's state with a snapshot previously written
// by Snapshot against the same compiled program.
func (e *Engine) Restore(r io.Reader) error {
	_, err := e.RestoreMeta(r)
	return err
}

// RestoreMeta is Restore returning the snapshot's WAL watermark. The
// snapshot is fully read and validated before any engine state is
// touched: on error the engine is exactly as it was, so a corrupt
// checkpoint can fall back to an older generation mid-recovery.
func (e *Engine) RestoreMeta(r io.Reader) (uint64, error) {
	staged, watermark, err := readSnapshot(r)
	if err != nil {
		return 0, err
	}
	for _, ms := range staged {
		m := e.maps[ms.name]
		if m == nil {
			return 0, fmt.Errorf("runtime: snapshot contains unknown map %q", ms.name)
		}
		if err := validateEntries(m, ms); err != nil {
			return 0, err
		}
	}
	clearEngineMaps(e)
	for _, ms := range staged {
		m := e.maps[ms.name]
		for i, k := range ms.keys {
			m.Add(k, ms.vals[i])
		}
	}
	return watermark, nil
}

// mapStage is one map's fully decoded snapshot content, held off-engine
// until the whole snapshot validates.
type mapStage struct {
	name string
	keys []types.Tuple
	vals []float64
}

// WriteSnapshot serializes map state in the engine snapshot format; the
// scan callback hands over each named map's entries. The codegen parity
// oracle uses it to render a generated program's state dump into bytes
// bitwise-comparable with (and restorable as) an engine snapshot.
func WriteSnapshot(w io.Writer, watermark uint64, mapOrder []string, scan func(name string, visit func(types.Tuple, float64))) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, watermark); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(mapOrder))); err != nil {
		return err
	}
	type kv struct {
		key string // encoded key bytes
		val float64
	}
	for _, name := range mapOrder {
		var entries []kv
		scan(name, func(t types.Tuple, v float64) {
			entries = append(entries, kv{key: string(types.EncodeKey(t)), val: v})
		})
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(entries))); err != nil {
			return err
		}
		for _, e := range entries {
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(e.key))); err != nil {
				return err
			}
			if _, err := bw.WriteString(e.key); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, e.val); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// readSnapshot fully decodes a snapshot into staged form without
// touching any engine. Every length is bounds-checked and keys decode
// through types.DecodeKeyChecked, so malformed input yields an error,
// never a panic.
func readSnapshot(r io.Reader) ([]mapStage, uint64, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("runtime: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, 0, fmt.Errorf("runtime: bad snapshot magic %q", magic)
	}
	var watermark uint64
	if err := binary.Read(br, binary.LittleEndian, &watermark); err != nil {
		return nil, 0, fmt.Errorf("runtime: snapshot watermark: %w", err)
	}
	var nMaps uint32
	if err := binary.Read(br, binary.LittleEndian, &nMaps); err != nil {
		return nil, 0, fmt.Errorf("runtime: snapshot map count: %w", err)
	}
	var staged []mapStage
	for i := uint32(0); i < nMaps; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, 0, fmt.Errorf("runtime: snapshot map name length: %w", err)
		}
		if nameLen > maxSnapshotStr {
			return nil, 0, fmt.Errorf("runtime: snapshot map name length %d exceeds limit", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return nil, 0, fmt.Errorf("runtime: snapshot map name: %w", err)
		}
		ms := mapStage{name: string(nameBytes)}
		var nEntries uint64
		if err := binary.Read(br, binary.LittleEndian, &nEntries); err != nil {
			return nil, 0, fmt.Errorf("runtime: snapshot entry count: %w", err)
		}
		for j := uint64(0); j < nEntries; j++ {
			var keyLen uint32
			if err := binary.Read(br, binary.LittleEndian, &keyLen); err != nil {
				return nil, 0, fmt.Errorf("runtime: snapshot key length: %w", err)
			}
			if keyLen > maxSnapshotStr {
				return nil, 0, fmt.Errorf("runtime: snapshot key length %d exceeds limit", keyLen)
			}
			keyBytes := make([]byte, keyLen)
			if _, err := io.ReadFull(br, keyBytes); err != nil {
				return nil, 0, fmt.Errorf("runtime: snapshot key: %w", err)
			}
			key, err := types.DecodeKeyChecked(keyBytes)
			if err != nil {
				return nil, 0, fmt.Errorf("runtime: snapshot map %s: %w", ms.name, err)
			}
			var v float64
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, 0, fmt.Errorf("runtime: snapshot value: %w", err)
			}
			ms.keys = append(ms.keys, key)
			ms.vals = append(ms.vals, v)
		}
		staged = append(staged, ms)
	}
	return staged, watermark, nil
}

// validateEntries checks staged entries against the physical map that
// will receive them: key arity must match the declaration and packed
// layouts accept only int keys (anything else would panic deep in the
// packed accessors).
func validateEntries(m *Map, ms mapStage) error {
	arity := m.decl.Arity()
	for _, k := range ms.keys {
		if len(k) != arity {
			return fmt.Errorf("runtime: snapshot map %s: key arity %d, declared %d", ms.name, len(k), arity)
		}
		if m.kind != storeGeneric {
			for _, v := range k {
				if v.Kind() != types.KindInt {
					return fmt.Errorf("runtime: snapshot map %s: %s key in packed int layout", ms.name, v.Kind())
				}
			}
		}
	}
	return nil
}

// clearEngineMaps empties every map through the Add path, keeping slice
// and ordered indexes coherent.
func clearEngineMaps(e *Engine) {
	for _, name := range e.prog.MapOrder {
		m := e.maps[name]
		var keys []types.Tuple
		m.Scan(func(t types.Tuple, _ float64) { keys = append(keys, t.Clone()) })
		for _, k := range keys {
			m.Add(k, -m.Get(k))
		}
	}
}
