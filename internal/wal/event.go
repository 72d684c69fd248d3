package wal

import (
	"encoding/binary"
	"fmt"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Record wire forms inside a WAL record's application bytes. The first
// byte is the record type:
//
//	0 (delete event), 1 (insert event):
//	    op | uint32 relLen | relation | AppendKey(args)
//	2 (query registration):
//	    2 | uint32 nameLen | name | uint32 sqlLen | sql | uint64 fromSeq
//	3 (query unregistration):
//	    3 | uint32 nameLen | name
//	4 (query quarantine):
//	    4 | uint32 nameLen | name | uint32 reasonLen | reason | uint64 lastGood
//
// The argument tuple reuses the injective key encoding, so decode goes
// through types.AppendDecodedKey and inherits its bounds validation and
// value canonicalization. Registration records make dynamic query
// lifecycle durable: a query registered after the last checkpoint is
// reconstructed during recovery from its record plus the retained log
// (fromSeq is the sequence number before which the query saw nothing).

// Record type bytes.
const (
	RecDelete     = 0
	RecInsert     = 1
	RecRegister   = 2
	RecUnregister = 3
	RecQuarantine = 4
)

// RecordType returns the type byte of a record's application bytes
// (RecDelete/RecInsert/RecRegister/RecUnregister), or -1 when empty.
func RecordType(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return int(b[0])
}

// AppendEvent appends the wire form of one base-relation delta to dst.
func AppendEvent(dst []byte, rel string, insert bool, args types.Tuple) []byte {
	op := byte(0)
	if insert {
		op = 1
	}
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rel)))
	dst = append(dst, rel...)
	return types.AppendKey(dst, args)
}

// AppendEventRecord appends one event to dst already laid out as a log
// record, with the two fields only the log can assign left zero:
//
//	uint32 payloadLen | uint32 0 (crc) | uint64 0 (seq) | AppendEvent bytes
//
// A producer encodes its whole request this way into one buffer, off the
// commit path; Manager.AppendEncoded assigns sequence numbers and CRCs as
// it copies the records into the log write.
func AppendEventRecord(dst []byte, rel string, insert bool, args types.Tuple) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recHdrLen+8)...)
	dst = AppendEvent(dst, rel, insert, args)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-recHdrLen))
	return dst
}

// splitEvent splits an event record's application bytes into the op, the
// relation name and the encoded argument tuple, all still in b.
func splitEvent(b []byte) (insert bool, rel, args []byte, err error) {
	if len(b) < 5 {
		return false, nil, nil, fmt.Errorf("wal: event record truncated (%d bytes)", len(b))
	}
	if b[0] > RecInsert {
		return false, nil, nil, fmt.Errorf("wal: bad event op byte 0x%02x", b[0])
	}
	relLen := int(binary.LittleEndian.Uint32(b[1:]))
	b, insert = b[5:], b[0] == RecInsert
	if relLen < 0 || relLen > len(b) {
		return false, nil, nil, fmt.Errorf("wal: event relation length %d exceeds remaining %d bytes", relLen, len(b))
	}
	return insert, b[:relLen], b[relLen:], nil
}

// DecodeEvent inverts AppendEvent. It never panics on malformed input.
func DecodeEvent(b []byte) (rel string, insert bool, args types.Tuple, err error) {
	insert, name, enc, err := splitEvent(b)
	if err != nil {
		return "", false, nil, err
	}
	if args, err = types.DecodeKeyChecked(enc); err != nil {
		return "", false, nil, err
	}
	return string(name), insert, args, nil
}

// RelationCache resolves the relation names of event records against a
// catalog. It remembers the last relation it resolved — a log is long runs
// of few relations — exactly as the server's line parser does, so a record
// of the same relation costs a byte compare, not a map probe.
type RelationCache struct {
	Catalog *schema.Catalog
	last    *schema.Relation
}

// resolve returns the catalog's relation for name, nil when unknown.
func (c *RelationCache) resolve(name []byte) *schema.Relation {
	if r := c.last; r != nil && string(name) == r.Name {
		return r
	}
	r, ok := c.Catalog.RelationBytes(name)
	if !ok {
		return nil
	}
	c.last = r
	return r
}

// DecodeEventInto is DecodeEvent for the replay path: the arguments are
// appended to slab (the event's Args alias it, capacity clipped to the
// event's own values) and the relation is the catalog's spelling, so an
// event of int and float columns decodes without allocating. It accepts and
// rejects exactly the records DecodeEvent does and yields equal values; a
// relation the catalog does not know keeps the record's spelling. Batched
// replay (batchReader.add) is these steps with a relation filter and the
// catalog's admission between them, spelled out there because the call
// costs a tenth of a pass.
func DecodeEventInto(slab []types.Value, b []byte, rc *RelationCache) (stream.Event, []types.Value, error) {
	insert, name, enc, err := splitEvent(b)
	if err != nil {
		return stream.Event{}, slab, err
	}
	start := len(slab)
	if slab, err = types.AppendDecodedKey(slab, enc); err != nil {
		return stream.Event{}, slab, err
	}
	ev := stream.Event{Op: stream.Delete, Args: slab[start:len(slab):len(slab)]}
	if insert {
		ev.Op = stream.Insert
	}
	if r := rc.resolve(name); r != nil {
		ev.Relation = r.Name
	} else {
		ev.Relation = string(name)
	}
	return ev, slab, nil
}

// appendString32 appends uint32 length + bytes.
func appendString32(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// readString32 consumes uint32 length + bytes from b.
func readString32(b []byte, what string) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("wal: %s length truncated", what)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) {
		return "", nil, fmt.Errorf("wal: %s length %d exceeds remaining %d bytes", what, n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// AppendRegister appends the wire form of a query-registration record:
// the query registered under name with the given (normalized) SQL, having
// seen no events at or before fromSeq.
func AppendRegister(dst []byte, name, sql string, fromSeq uint64) []byte {
	dst = append(dst, RecRegister)
	dst = appendString32(dst, name)
	dst = appendString32(dst, sql)
	return binary.LittleEndian.AppendUint64(dst, fromSeq)
}

// DecodeRegister inverts AppendRegister. It never panics on malformed
// input.
func DecodeRegister(b []byte) (name, sql string, fromSeq uint64, err error) {
	if len(b) < 1 || b[0] != RecRegister {
		return "", "", 0, fmt.Errorf("wal: not a register record")
	}
	name, rest, err := readString32(b[1:], "register name")
	if err != nil {
		return "", "", 0, err
	}
	sql, rest, err = readString32(rest, "register sql")
	if err != nil {
		return "", "", 0, err
	}
	if len(rest) != 8 {
		return "", "", 0, fmt.Errorf("wal: register record trailer has %d bytes, want 8", len(rest))
	}
	return name, sql, binary.LittleEndian.Uint64(rest), nil
}

// AppendUnregister appends the wire form of a query-unregistration record.
func AppendUnregister(dst []byte, name string) []byte {
	dst = append(dst, RecUnregister)
	return appendString32(dst, name)
}

// DecodeUnregister inverts AppendUnregister.
func DecodeUnregister(b []byte) (name string, err error) {
	if len(b) < 1 || b[0] != RecUnregister {
		return "", fmt.Errorf("wal: not an unregister record")
	}
	name, rest, err := readString32(b[1:], "unregister name")
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wal: unregister record has %d trailing bytes", len(rest))
	}
	return name, nil
}

// AppendQuarantine appends the wire form of a query-quarantine record:
// the query under name was removed from the fan-out for reason, with
// lastGood the last WAL sequence it is known to have fully applied. The
// record makes quarantine durable — replay demotes the query at the same
// stream position — without disturbing event records (a catch-up passes
// over all lifecycle records, so other queries' replay is unaffected).
func AppendQuarantine(dst []byte, name, reason string, lastGood uint64) []byte {
	dst = append(dst, RecQuarantine)
	dst = appendString32(dst, name)
	dst = appendString32(dst, reason)
	return binary.LittleEndian.AppendUint64(dst, lastGood)
}

// DecodeQuarantine inverts AppendQuarantine. It never panics on malformed
// input.
func DecodeQuarantine(b []byte) (name, reason string, lastGood uint64, err error) {
	if len(b) < 1 || b[0] != RecQuarantine {
		return "", "", 0, fmt.Errorf("wal: not a quarantine record")
	}
	name, rest, err := readString32(b[1:], "quarantine name")
	if err != nil {
		return "", "", 0, err
	}
	reason, rest, err = readString32(rest, "quarantine reason")
	if err != nil {
		return "", "", 0, err
	}
	if len(rest) != 8 {
		return "", "", 0, fmt.Errorf("wal: quarantine record trailer has %d bytes, want 8", len(rest))
	}
	return name, reason, binary.LittleEndian.Uint64(rest), nil
}
