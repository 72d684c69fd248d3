package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dbtoaster/internal/metrics"
)

// Options tunes a Manager.
type Options struct {
	// Sync fsyncs the active segment after every append (batch appends
	// sync once per batch). Off by default: the checkpoint cadence bounds
	// loss to the OS page-cache window, which matches the bakeoff's
	// throughput-first posture; -wal-sync opts into full durability.
	Sync bool

	// Stats, when non-nil, receives append/sync/checkpoint/recovery
	// telemetry.
	Stats *metrics.WALStats

	// Failpoint, when non-nil, is consulted at every crash point; see
	// FailpointFn. Production servers leave it nil.
	Failpoint FailpointFn
}

// RecoveryInfo summarizes what Recover did.
type RecoveryInfo struct {
	CheckpointGen      uint64 // generation restored from (0 = no checkpoint, full replay)
	Watermark          uint64 // sequence number the checkpoint covered
	Replayed           uint64 // WAL records applied after the checkpoint
	SkippedCheckpoints int    // corrupt/truncated checkpoints passed over
	TruncatedBytes     int64  // torn-tail bytes dropped from the active segment at Open
	BytesRead          uint64 // segment bytes the replay read
	Elapsed            time.Duration
}

// Manager owns one WAL directory: the active segment, the sequence
// counter, and checkpoint rotation. All methods are safe for concurrent
// use; the server serializes ingest through its own lock anyway, so the
// internal mutex is uncontended in practice.
type Manager struct {
	dir  string
	opts Options

	mu        sync.Mutex
	active    *os.File
	activeGen uint64
	seq       uint64
	crashed   bool
	closed    bool
	buf       []byte
	// pins counts outstanding Pin holders: while positive, checkpoints
	// skip pruning so a live catch-up replay never races file removal.
	pins int

	// Discovered at Open, consumed by Recover.
	hadState     bool
	ckptGen      uint64 // newest valid checkpoint generation (0 = none)
	ckptPath     string
	ckptWM       uint64
	skippedCkpts int
	truncated    int64
	segGens      []uint64 // ascending
}

// Open scans (creating if needed) a WAL directory, repairs the torn tail
// a crash may have left on the active segment, and positions the sequence
// counter after the last durable record. Call Recover before appending if
// the directory held prior state.
func Open(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ckptGens []uint64
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted atomic write; never referenced, safe to drop.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var gen uint64
			if _, err := fmt.Sscanf(name, "wal-%08d.log", &gen); err == nil && gen > 0 {
				m.segGens = append(m.segGens, gen)
			}
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt"):
			var gen uint64
			if _, err := fmt.Sscanf(name, "ckpt-%08d.ckpt", &gen); err == nil && gen > 0 {
				ckptGens = append(ckptGens, gen)
			}
		}
	}
	sort.Slice(m.segGens, func(i, j int) bool { return m.segGens[i] < m.segGens[j] })
	sort.Slice(ckptGens, func(i, j int) bool { return ckptGens[i] > ckptGens[j] })
	m.hadState = len(ckptGens) > 0

	// Newest checkpoint that validates end to end wins; corrupt ones are
	// passed over (the generation-rotation fallback).
	for _, gen := range ckptGens {
		path := filepath.Join(dir, ckptName(gen))
		blob, err := os.ReadFile(path)
		if err != nil {
			m.skippedCkpts++
			continue
		}
		fileGen, wm, _, err := parseCheckpoint(blob)
		if err != nil || fileGen != gen {
			m.skippedCkpts++
			continue
		}
		m.ckptGen, m.ckptWM, m.ckptPath = gen, wm, path
		break
	}

	// Walk every retained segment to find the last durable sequence
	// number; repair the active (newest) segment's torn tail in place.
	var lastSeq uint64
	var buf []byte
	for i, gen := range m.segGens {
		path := filepath.Join(dir, segName(gen))
		seg, err := openSegment(path, 0, buf)
		if err != nil {
			return nil, err
		}
		isActive := i == len(m.segGens)-1
		if err := seg.header(); err != nil {
			seg.f.Close()
			if seg.err != nil || !isActive {
				return nil, err
			}
			// A crash mid-rotation leaves the newest segment with a torn
			// header and necessarily no records; rewrite it whole.
			hdr := appendSegHeader(nil, gen)
			if err := os.WriteFile(path, hdr, 0o644); err != nil {
				return nil, err
			}
			m.truncated += seg.size
			continue
		}
		for {
			seq, _, ok := seg.next()
			if !ok {
				break
			}
			if seq > lastSeq {
				lastSeq = seq
			}
			m.hadState = true
		}
		buf = seg.buf
		seg.f.Close()
		if seg.err != nil {
			return nil, seg.err
		}
		if torn := seg.size - seg.off; torn > 0 && isActive {
			if err := os.Truncate(path, seg.off); err != nil {
				return nil, err
			}
			m.truncated += torn
		}
	}
	m.seq = lastSeq
	if m.ckptWM > m.seq {
		m.seq = m.ckptWM
	}

	if len(m.segGens) == 0 {
		gen := m.ckptGen + 1
		if gen == 0 {
			gen = 1
		}
		if err := m.createSegment(gen); err != nil {
			return nil, err
		}
	} else {
		m.activeGen = m.segGens[len(m.segGens)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(m.activeGen)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		m.active = f
	}
	return m, nil
}

// createSegment writes a fresh segment for gen (no failpoints: this is
// the repair/bootstrap path, not a crash point) and makes it active.
func (m *Manager) createSegment(gen uint64) error {
	path := filepath.Join(m.dir, segName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendSegHeader(nil, gen)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(m.dir)
	m.active = f
	m.activeGen = gen
	m.segGens = append(m.segGens, gen)
	return nil
}

// Empty reports whether the directory held no durable state at Open —
// the guard behind the server's "refuse to start on a non-empty WAL dir
// without -recover" check.
func (m *Manager) Empty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.hadState
}

// LastSeq returns the sequence number of the most recent append (or the
// recovered watermark).
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Dir returns the WAL directory.
func (m *Manager) Dir() string { return m.dir }

// fire consults the failpoint for a non-write step; a crash poisons the
// manager.
func (m *Manager) fire(name string) error {
	if m.opts.Failpoint != nil {
		if n := m.opts.Failpoint(Failpoint{Name: name}); n >= 0 {
			m.crashed = true
			return ErrInjectedCrash
		}
	}
	return nil
}

// fireWrite writes data to f, honoring the failpoint: a non-negative
// verdict n leaves exactly the first n bytes in the file — the torn write
// a crash at that instant produces — and poisons the manager.
func (m *Manager) fireWrite(f *os.File, name string, data []byte) error {
	if m.opts.Failpoint != nil {
		if n := m.opts.Failpoint(Failpoint{Name: name, Len: len(data)}); n >= 0 {
			if n > len(data) {
				n = len(data)
			}
			if n > 0 {
				_, _ = f.Write(data[:n])
			}
			m.crashed = true
			return ErrInjectedCrash
		}
	}
	_, err := f.Write(data)
	return err
}

func (m *Manager) usableLocked() error {
	if m.crashed {
		return ErrInjectedCrash
	}
	if m.closed {
		return os.ErrClosed
	}
	return nil
}

// Append logs one application record and returns its sequence number.
func (m *Manager) Append(data []byte) (uint64, error) {
	return m.appendRecords([][]byte{data})
}

// AppendBatch logs a batch of records with consecutive sequence numbers
// in one write (and, in Sync mode, one fsync), returning the last. A torn
// write mid-batch leaves a durable prefix of whole records — recovery
// truncates at the first damaged one.
func (m *Manager) AppendBatch(datas [][]byte) (uint64, error) {
	return m.appendRecords(datas)
}

func (m *Manager) appendRecords(datas [][]byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return 0, err
	}
	buf := m.buf[:0]
	for i, data := range datas {
		buf = appendRecord(buf, m.seq+uint64(i)+1, data)
	}
	return m.writeLocked(buf, len(datas))
}

// AppendEncoded logs the records of every buffer in encs — each a run of
// AppendEventRecord output — with consecutive sequence numbers in one write
// (and, in Sync mode, one fsync), returning the last. What reaches the file
// is identical to AppendBatch over the same events; the encoding work was
// done by the callers, so this is a copy, a sequence number and a CRC per
// record. The buffers are only read.
func (m *Manager) AppendEncoded(encs [][]byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return 0, err
	}
	buf, seq := m.buf[:0], m.seq
	for _, enc := range encs {
		var err error
		if buf, seq, err = sealRecords(buf, seq, enc); err != nil {
			return 0, err
		}
	}
	return m.writeLocked(buf, int(seq-m.seq))
}

// writeLocked appends n framed records (numbered from m.seq+1) to the
// active segment in one write and advances the sequence counter.
func (m *Manager) writeLocked(buf []byte, n int) (uint64, error) {
	m.buf = buf
	if n == 0 {
		return m.seq, nil
	}
	if err := m.fireWrite(m.active, "wal.append", buf); err != nil {
		return 0, err
	}
	m.seq += uint64(n)
	m.hadState = true
	if st := m.opts.Stats; st != nil {
		st.Appends.Add(uint64(n))
		st.AppendedBytes.Add(uint64(len(buf)))
	}
	if m.opts.Sync {
		if err := m.syncLocked(); err != nil {
			return 0, err
		}
	}
	return m.seq, nil
}

// Sync forces the active segment to disk (a no-op risk knob for callers
// running with Options.Sync off).
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return err
	}
	return m.syncLocked()
}

func (m *Manager) syncLocked() error {
	if err := m.fire("wal.sync"); err != nil {
		return err
	}
	st := m.opts.Stats
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	if err := m.active.Sync(); err != nil {
		return err
	}
	if st != nil {
		st.Syncs.Inc()
		st.SyncNs.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Checkpoint captures application state through the current watermark:
// the state callback serializes into the checkpoint payload, which is
// written with the atomic tmp+fsync+rename pattern, after which the log
// rotates to a fresh generation and prunes everything older than the
// previous checkpoint. On success the two newest checkpoint generations
// and the segments needed to roll either forward remain on disk.
func (m *Manager) Checkpoint(state func(w io.Writer, watermark uint64) error) (gen, watermark uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return 0, 0, err
	}
	st := m.opts.Stats
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	gen, watermark = m.activeGen, m.seq
	if err := m.fire("ckpt.begin"); err != nil {
		return 0, 0, err
	}
	var payload bytes.Buffer
	if err := state(&payload, watermark); err != nil {
		return 0, 0, fmt.Errorf("wal: checkpoint state: %w", err)
	}
	blob := buildCheckpoint(gen, watermark, payload.Bytes())

	final := filepath.Join(m.dir, ckptName(gen))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	if err := m.fireWrite(f, "ckpt.write", blob); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := m.fire("ckpt.sync"); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	if err := m.fire("ckpt.rename"); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, 0, err
	}
	syncDir(m.dir)

	if err := m.rotateLocked(); err != nil {
		return 0, 0, err
	}
	if err := m.fire("ckpt.prune"); err != nil {
		return 0, 0, err
	}
	if m.pins == 0 {
		m.pruneLocked(gen)
	}
	m.ckptGen, m.ckptWM, m.ckptPath = gen, watermark, final
	m.hadState = true
	if st != nil {
		st.Checkpoints.Inc()
		st.CheckpointNs.Observe(time.Since(start).Nanoseconds())
		st.CheckpointBytes.Add(uint64(len(blob)))
	}
	return gen, watermark, nil
}

// rotateLocked opens segment activeGen+1 and retires the current one.
func (m *Manager) rotateLocked() error {
	gen := m.activeGen + 1
	path := filepath.Join(m.dir, segName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := m.fireWrite(f, "wal.rotate", appendSegHeader(nil, gen)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(m.dir)
	m.active.Close()
	m.active = f
	m.activeGen = gen
	m.segGens = append(m.segGens, gen)
	return nil
}

// pruneLocked removes checkpoints older than ckptGen-1 and segments older
// than ckptGen (recovery can fall back one generation: ckpt g-1 plus
// segments >= g reconstruct everything).
func (m *Manager) pruneLocked(ckptGen uint64) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		var gen uint64
		switch {
		case strings.HasPrefix(name, "wal-"):
			if _, err := fmt.Sscanf(name, "wal-%08d.log", &gen); err == nil && gen < ckptGen {
				_ = os.Remove(filepath.Join(m.dir, name))
			}
		case strings.HasPrefix(name, "ckpt-"):
			if _, err := fmt.Sscanf(name, "ckpt-%08d.ckpt", &gen); err == nil && gen+1 < ckptGen {
				_ = os.Remove(filepath.Join(m.dir, name))
			}
		}
	}
	keep := m.segGens[:0]
	for _, g := range m.segGens {
		if g >= ckptGen {
			keep = append(keep, g)
		}
	}
	m.segGens = keep
}

// Recover rebuilds application state: restore is handed the newest valid
// checkpoint payload (skipped entirely when none exists), then apply is
// called once per logged record past the watermark, in sequence order.
// Errors from either callback abort recovery — corruption fallback
// happened at Open; callback errors are application-level and must
// surface.
//
// The manager's lock is not held across the callbacks, so apply may call
// back into ReplayRange — the server does exactly that when it replays a
// query-registration record and must catch the new query up from the
// retained log. Recover runs before serving starts; it is not meant to be
// concurrent with appends.
func (m *Manager) Recover(restore func(r io.Reader) error, apply func(seq uint64, data []byte) error) (RecoveryInfo, error) {
	return m.recoverWith(restore, func(cur *Cursor) (ScanInfo, error) { return m.scan(cur, 0, apply) })
}

// RecoverBatches is Recover with the log tail delivered as replay batches
// (see ReplayBatches); src.Lifecycle decides whether lifecycle records are
// among them.
func (m *Manager) RecoverBatches(restore func(r io.Reader) error, src EventSource, apply func(*Batch) error) (RecoveryInfo, error) {
	return m.recoverWith(restore, func(cur *Cursor) (ScanInfo, error) { return m.ReplayBatches(cur, 0, src, apply) })
}

// recoverWith restores the newest valid checkpoint and hands replay a cursor
// at its watermark.
func (m *Manager) recoverWith(restore func(r io.Reader) error, replay func(*Cursor) (ScanInfo, error)) (RecoveryInfo, error) {
	start := time.Now()
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		CheckpointGen:      m.ckptGen,
		Watermark:          m.ckptWM,
		SkippedCheckpoints: m.skippedCkpts,
		TruncatedBytes:     m.truncated,
	}
	ckptGen, ckptPath := m.ckptGen, m.ckptPath
	m.mu.Unlock()

	if ckptGen != 0 && restore != nil {
		blob, err := os.ReadFile(ckptPath)
		if err != nil {
			return info, err
		}
		_, _, payload, err := parseCheckpoint(blob)
		if err != nil {
			return info, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(ckptPath), err)
		}
		if err := restore(bytes.NewReader(payload)); err != nil {
			return info, fmt.Errorf("wal: checkpoint restore: %w", err)
		}
	}
	si, err := replay(&Cursor{Gen: ckptGen + 1, Seq: info.Watermark})
	info.Replayed, info.BytesRead, info.Elapsed = si.Records, si.Bytes, time.Since(start)
	if err != nil {
		return info, err
	}
	if st := m.opts.Stats; st != nil {
		st.Recoveries.Inc()
		st.ReplayedRecords.Add(info.Replayed)
	}
	return info, nil
}

// Pin blocks segment pruning until the returned release function is
// called. A registration catch-up pins the log before its first replay
// pass so an automatic checkpoint cannot delete segments the replay (or a
// post-crash recovery of the registration record) still needs; pruning
// resumes at the next checkpoint after release.
func (m *Manager) Pin() (release func()) {
	m.mu.Lock()
	m.pins++
	m.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.pins--
			m.mu.Unlock()
		})
	}
}

// ReplayRange replays retained records with after < seq (and, when until
// is non-zero, seq < until) in sequence order, returning the first and
// last sequence numbers applied (both zero when none matched); it reads no
// further than the first record at or past until. Unlike Recover it walks
// the retained segments from the oldest, including those at or before the
// newest checkpoint generation — it is the catch-up path for queries
// registered mid-stream, which need the full retained history, not the
// post-checkpoint tail. See scan for running it beside appends and
// checkpoints.
func (m *Manager) ReplayRange(after, until uint64, apply func(seq uint64, data []byte) error) (first, last uint64, err error) {
	info, err := m.scan(&Cursor{Seq: after}, until, apply)
	return info.First, info.Last, err
}

// Close releases the active segment. After an injected crash it only
// closes file descriptors, leaving the directory as the crash left it.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.active == nil {
		return nil
	}
	if m.crashed {
		return m.active.Close()
	}
	if err := m.active.Sync(); err != nil {
		m.active.Close()
		return err
	}
	return m.active.Close()
}
