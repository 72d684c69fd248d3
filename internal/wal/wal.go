// Package wal is the durability subsystem: a length-prefixed, CRC-checked
// write-ahead event log with monotonic sequence numbers, periodic
// checkpoints written atomically with generation rotation, and recovery
// that loads the newest valid checkpoint and replays the log tail. The
// paper's "main-memory database snapshot" thereby survives process
// crashes instead of requiring a full stream replay.
//
// On-disk layout (one directory per server):
//
//	wal-00000001.log    log segment, generation 1
//	ckpt-00000001.ckpt  checkpoint taken while generation 1 was active
//
// Segment format:
//
//	magic "DBTL" | uint32 version | uint64 generation
//	records: uint32 payloadLen | uint32 crc32(payload) | payload
//	payload: uint64 seq | application bytes
//
// Checkpoint format:
//
//	magic "DBTC" | uint32 version | uint64 generation | uint64 watermark
//	uint64 payloadLen | payload | uint32 crc32(everything preceding)
//
// All integers little-endian. A checkpoint of generation g captures all
// state through its watermark (every record in segments <= g); after
// writing it the log rotates to segment g+1 and prunes checkpoints older
// than g-1 and segments older than g, so recovery can always fall back
// one generation: restore ckpt g-1 and replay segments g, g+1.
//
// Crash tolerance is the design center, proven by the fault-injection
// harness in fault_test.go: a torn final record (or torn rotation header)
// is detected by length/CRC, truncated, and treated as the end of the
// log; an interrupted checkpoint leaves only a *.tmp file that recovery
// ignores; a corrupted checkpoint falls back to the previous generation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

const (
	segMagic   = "DBTL"
	ckptMagic  = "DBTC"
	walVersion = 1
	segHdrLen  = 4 + 4 + 8         // magic, version, generation
	recHdrLen  = 4 + 4             // payloadLen, crc
	ckptHdrLen = 4 + 4 + 8 + 8 + 8 // magic, version, generation, watermark, payloadLen
	maxRecord  = 64 << 20          // sanity bound on one record's payload
)

// ErrInjectedCrash is returned by every Manager operation after a
// failpoint fired: the manager simulates a dead process and refuses all
// further work, leaving the directory exactly as the crash left it.
var ErrInjectedCrash = errors.New("wal: injected crash")

// Failpoint identifies one crash point presented to a FailpointFn: the
// named step about to execute and, for write steps, the number of bytes
// about to be written (0 for non-write steps).
type Failpoint struct {
	Name string // "wal.append", "wal.sync", "wal.rotate", "ckpt.begin", "ckpt.write", "ckpt.sync", "ckpt.rename", "ckpt.prune"
	Len  int
}

// FailpointFn decides the fate of one crash point: return -1 to continue
// normally, or n >= 0 to crash after the first n bytes of the pending
// write reach the file (n is clamped to Len; for non-write points any
// n >= 0 crashes before the step runs). The fault harness uses this to
// enumerate every crash point and every torn-write split.
type FailpointFn func(fp Failpoint) int

func segName(gen uint64) string  { return fmt.Sprintf("wal-%08d.log", gen) }
func ckptName(gen uint64) string { return fmt.Sprintf("ckpt-%08d.ckpt", gen) }

// appendSegHeader appends a segment header for generation gen.
func appendSegHeader(dst []byte, gen uint64) []byte {
	dst = append(dst, segMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, walVersion)
	return binary.LittleEndian.AppendUint64(dst, gen)
}

// parseSegHeader validates a segment header and returns its generation.
func parseSegHeader(b []byte) (uint64, error) {
	if len(b) < segHdrLen {
		return 0, fmt.Errorf("wal: segment header truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != walVersion {
		return 0, fmt.Errorf("wal: unsupported segment version %d", v)
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// appendRecord appends one framed record carrying (seq, data).
func appendRecord(dst []byte, seq uint64, data []byte) []byte {
	payloadLen := 8 + len(data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	// CRC over the payload; computed incrementally to avoid a second
	// buffer.
	crc := crc32.ChecksumIEEE(binary.LittleEndian.AppendUint64(nil, seq))
	crc = crc32.Update(crc, crc32.IEEETable, data)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return append(dst, data...)
}

// sealRecords copies pre-framed records (see AppendEventRecord) from enc to
// dst, numbering them seq+1, seq+2, … and filling in each CRC; the result
// is byte for byte what appendRecord produces for the same data. It returns
// the extended dst and the last sequence number assigned.
func sealRecords(dst []byte, seq uint64, enc []byte) ([]byte, uint64, error) {
	for len(enc) > 0 {
		if len(enc) < recHdrLen+8 {
			return dst, seq, fmt.Errorf("wal: encoded record truncated (%d bytes)", len(enc))
		}
		payloadLen := int(binary.LittleEndian.Uint32(enc))
		if payloadLen < 8 || payloadLen > maxRecord || len(enc) < recHdrLen+payloadLen {
			return dst, seq, fmt.Errorf("wal: encoded record length %d does not fit the %d bytes given", payloadLen, len(enc))
		}
		start := len(dst)
		dst = append(dst, enc[:recHdrLen+payloadLen]...)
		payload := dst[start+recHdrLen:]
		seq++
		binary.LittleEndian.PutUint64(payload, seq)
		binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
		enc = enc[recHdrLen+payloadLen:]
	}
	return dst, seq, nil
}

// buildCheckpoint serializes a complete checkpoint file image.
func buildCheckpoint(gen, watermark uint64, payload []byte) []byte {
	out := make([]byte, 0, ckptHdrLen+len(payload)+4)
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint32(out, walVersion)
	out = binary.LittleEndian.AppendUint64(out, gen)
	out = binary.LittleEndian.AppendUint64(out, watermark)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// parseCheckpoint validates a full checkpoint image and returns its
// generation, watermark, and payload. Any truncation or corruption is an
// error — the caller falls back to the previous generation.
func parseCheckpoint(b []byte) (gen, watermark uint64, payload []byte, err error) {
	if len(b) < ckptHdrLen+4 {
		return 0, 0, nil, fmt.Errorf("wal: checkpoint truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != ckptMagic {
		return 0, 0, nil, fmt.Errorf("wal: bad checkpoint magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != walVersion {
		return 0, 0, nil, fmt.Errorf("wal: unsupported checkpoint version %d", v)
	}
	gen = binary.LittleEndian.Uint64(b[8:])
	watermark = binary.LittleEndian.Uint64(b[16:])
	payloadLen := binary.LittleEndian.Uint64(b[24:])
	if payloadLen != uint64(len(b)-ckptHdrLen-4) {
		return 0, 0, nil, fmt.Errorf("wal: checkpoint payload length %d does not match file size", payloadLen)
	}
	wantCRC := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != wantCRC {
		return 0, 0, nil, errors.New("wal: checkpoint CRC mismatch")
	}
	return gen, watermark, b[ckptHdrLen : len(b)-4], nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
