package wal

import (
	"encoding/binary"
	"fmt"

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
// through types.DecodeKeyChecked and inherits its bounds validation and
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

// DecodeEvent inverts AppendEvent. It never panics on malformed input.
func DecodeEvent(b []byte) (rel string, insert bool, args types.Tuple, err error) {
	if len(b) < 5 {
		return "", false, nil, fmt.Errorf("wal: event record truncated (%d bytes)", len(b))
	}
	switch b[0] {
	case 0, 1:
		insert = b[0] == 1
	default:
		return "", false, nil, fmt.Errorf("wal: bad event op byte 0x%02x", b[0])
	}
	relLen := int(binary.LittleEndian.Uint32(b[1:]))
	b = b[5:]
	if relLen < 0 || relLen > len(b) {
		return "", false, nil, fmt.Errorf("wal: event relation length %d exceeds remaining %d bytes", relLen, len(b))
	}
	rel = string(b[:relLen])
	args, err = types.DecodeKeyChecked(b[relLen:])
	if err != nil {
		return "", false, nil, err
	}
	return rel, insert, args, nil
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
// stream position — without disturbing event records (replayInto skips
// all lifecycle records, so catch-up for other queries is unaffected).
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
