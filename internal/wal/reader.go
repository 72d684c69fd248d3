package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// chunkSize is how much of a segment the reader asks the file for at a
// time. Nothing that reads the log — Open's tail repair, Recover,
// ReplayRange, a registration's catch-up — holds more than one chunk of it
// (or one record, when a record is larger).
const chunkSize = 1 << 20

// minChunk is the smallest read buffer: room for a segment header and a few
// records, so a log that grows under a scan is not read a record at a time.
const minChunk = 4 << 10

// Cursor is a resumable read position in the retained log: the segment
// generation, the byte offset in it of the next unread record, and the
// sequence number of the last record delivered. The zero Cursor is the
// start of the retained log; Cursor{Seq: n} the same, delivering nothing at
// or before n. A scan leaves its cursor after the last record it delivered
// — never past a torn or half-written tail — so the next scan over the same
// cursor continues there without reading anything twice.
type Cursor struct {
	Gen uint64
	Off int64
	Seq uint64

	buf []byte // the chunk buffer, kept for the next scan
}

// ScanInfo summarizes one scan of the log.
type ScanInfo struct {
	First, Last uint64 // first and last sequence numbers delivered (0: none)
	Records     uint64 // records delivered
	Bytes       uint64 // bytes read from segment files
}

// segReader streams the intact records of one segment file through a
// buffer of one chunk; a record that spans a chunk boundary slides to the
// front of the buffer and the next read lands behind it.
type segReader struct {
	f     *os.File
	buf   []byte // buf[r:w] is read from the file and not yet consumed
	r, w  int
	off   int64  // file offset of buf[r]: where the next record starts
	size  int64  // the file's length when it was opened
	eof   bool   // the file had no more bytes at the last read
	err   error  // a read error other than EOF
	bytes uint64 // bytes read from the file
}

// openSegment opens a segment for reading from off: zero, where the header
// is (see header), or the offset of a record a cursor stopped before. buf is
// reused when it is large enough: a chunk, or what the file holds past off
// when that is less — the common scans of a short tail (a registration on a
// young log, its final drain, a recovered REGISTER record's empty range)
// should not each cost a megabyte of fresh memory.
func openSegment(path string, off int64, buf []byte) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if want := min(max(size-off, minChunk), chunkSize); int64(cap(buf)) < want {
		buf = make([]byte, want)
	}
	return &segReader{f: f, buf: buf[:cap(buf)], off: off, size: size}, nil
}

// header consumes and validates the segment header. A header that does not
// validate leaves s.err nil; a failed read sets it.
func (s *segReader) header() error {
	s.fill(segHdrLen)
	if s.err != nil {
		return s.err
	}
	if _, err := parseSegHeader(s.buf[:s.w]); err != nil {
		return fmt.Errorf("wal: segment %s: %w", filepath.Base(s.f.Name()), err)
	}
	s.r, s.off = segHdrLen, segHdrLen
	return nil
}

// fill reads until n unconsumed bytes are buffered, reporting whether the
// file had that many.
func (s *segReader) fill(n int) bool {
	for s.w-s.r < n {
		if s.eof || s.err != nil {
			return false
		}
		if s.r > 0 {
			s.w = copy(s.buf, s.buf[s.r:s.w])
			s.r = 0
		}
		if n > len(s.buf) {
			// One record larger than the buffer. Its length is only trusted
			// if the file held that many bytes when it was opened, so a
			// garbage length in a torn header cannot size an allocation.
			if s.size-s.off < int64(n) {
				return false
			}
			s.buf = append(make([]byte, 0, n), s.buf[:s.w]...)[:n]
		}
		k, err := s.f.ReadAt(s.buf[s.w:], s.off+int64(s.w-s.r))
		s.w += k
		s.bytes += uint64(k)
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.err = err
		}
	}
	return true
}

// next returns the next intact record; data aliases the buffer and is valid
// until the following call. ok is false at the end of the valid prefix: the
// end of the file, or a truncated or CRC-mismatched record — the torn tail a
// crash (or an append in flight) leaves — which is not consumed.
func (s *segReader) next() (seq uint64, data []byte, ok bool) {
	if !s.fill(recHdrLen) {
		return 0, nil, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(s.buf[s.r:]))
	if payloadLen < 8 || payloadLen > maxRecord || !s.fill(recHdrLen+payloadLen) {
		return 0, nil, false
	}
	rec := s.buf[s.r : s.r+recHdrLen+payloadLen]
	payload := rec[recHdrLen:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rec[4:]) {
		return 0, nil, false
	}
	s.r += len(rec)
	s.off += int64(len(rec))
	return binary.LittleEndian.Uint64(payload), payload[8:], true
}

// scan delivers the retained records past cur, in sequence order, to visit
// — stopping before the first record with seq >= until when until is
// non-zero — and advances cur past what it delivered. It is the one log
// reader: Recover, ReplayRange and batched replay are thin layers over it.
//
// The manager's lock is only held to snapshot the segment list, so a scan
// may run beside appends: a record half written when its bytes are read
// looks like a torn tail and ends the scan cleanly, with cur before it.
// Callers scanning beside checkpoints hold a Pin so pruning cannot remove
// segments mid-pass; without one, a segment pruned under the scan is
// skipped (its records are at or before a checkpoint watermark).
func (m *Manager) scan(cur *Cursor, until uint64, visit func(seq uint64, data []byte) error) (info ScanInfo, err error) {
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return info, err
	}
	segGens := append([]uint64{}, m.segGens...)
	m.mu.Unlock()

	var scanned uint64
	defer func() {
		if st := m.opts.Stats; st != nil {
			st.ReplayBytes.Add(info.Bytes)
			st.ReplayRecords.Add(scanned)
		}
	}()
	for i, gen := range segGens {
		if gen < cur.Gen {
			continue
		}
		if gen > cur.Gen {
			cur.Gen, cur.Off = gen, 0
		}
		var s *segReader
		s, err = openSegment(filepath.Join(m.dir, segName(gen)), cur.Off, cur.buf)
		if os.IsNotExist(err) {
			continue
		}
		if err == nil && cur.Off == 0 {
			if err = s.header(); err != nil {
				s.f.Close()
			}
		}
		if err != nil {
			return info, err
		}
		cur.Off = s.off
		atUntil := false
		for err == nil {
			seq, data, ok := s.next()
			if atUntil = ok && until != 0 && seq >= until; !ok || atUntil {
				break
			}
			scanned++
			if seq > cur.Seq {
				if err = visit(seq, data); err != nil {
					break
				}
				if info.First == 0 {
					info.First = seq
				}
				info.Last, cur.Seq = seq, seq
				info.Records++
			}
			cur.Off = s.off
		}
		cur.buf = s.buf
		info.Bytes += s.bytes
		s.f.Close()
		if err == nil {
			err = s.err
		}
		// The scan ends at until, and at the end of the newest segment,
		// where the cursor waits for what is appended next. The end of an
		// older segment's valid prefix — damage loses its remainder, as at
		// Open — continues in the next generation.
		if err != nil || atUntil || i == len(segGens)-1 {
			return info, err
		}
	}
	return info, nil
}
