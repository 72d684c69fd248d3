package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbtoaster/internal/types"
)

// replayAll recovers every record in m, returning the restored checkpoint
// payload (nil if none) and the replayed (seq, data) pairs.
func replayAll(t *testing.T, m *Manager) (ckpt []byte, seqs []uint64, datas [][]byte) {
	t.Helper()
	_, err := m.Recover(
		func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			ckpt = b
			return nil
		},
		func(seq uint64, data []byte) error {
			seqs = append(seqs, seq)
			datas = append(datas, append([]byte(nil), data...))
			return nil
		})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return ckpt, seqs, datas
}

func mustOpen(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	if !m.Empty() {
		t.Fatal("fresh directory should be Empty")
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for i, d := range want {
		seq, err := m.Append(d)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append seq = %d, want %d", seq, i+1)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := mustOpen(t, dir, Options{})
	if m2.Empty() {
		t.Fatal("directory with records should not be Empty")
	}
	if m2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", m2.LastSeq())
	}
	ckpt, seqs, datas := replayAll(t, m2)
	if ckpt != nil {
		t.Fatalf("unexpected checkpoint payload %q", ckpt)
	}
	if len(seqs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(seqs))
	}
	for i, d := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(datas[i], d) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, seqs[i], datas[i], i+1, d)
		}
	}
	// Sequence numbering resumes after the recovered tail.
	seq, err := m2.Append([]byte("four"))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seq != 4 {
		t.Fatalf("resumed seq = %d, want 4", seq)
	}
}

func TestAppendBatchAssignsConsecutiveSeqs(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	last, err := m.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if last != 3 {
		t.Fatalf("AppendBatch last seq = %d, want 3", last)
	}
	m.Close()
	m2 := mustOpen(t, dir, Options{})
	_, seqs, _ := replayAll(t, m2)
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("replayed seqs = %v, want [1 2 3]", seqs)
	}
}

func TestTornTailTruncatedAtOpen(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := m.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// Simulate a crash mid-append: a whole extra record, torn in half.
	path := filepath.Join(dir, segName(1))
	torn := appendRecord(nil, 4, []byte("torn"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	m2 := mustOpen(t, dir, Options{})
	if m2.LastSeq() != 3 {
		t.Fatalf("LastSeq after torn tail = %d, want 3", m2.LastSeq())
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)/2) {
		t.Fatalf("torn bytes not truncated: size %d, want %d", after.Size(), before.Size()-int64(len(torn)/2))
	}
	_, seqs, _ := replayAll(t, m2)
	if len(seqs) != 3 {
		t.Fatalf("replayed %d records after truncation, want 3", len(seqs))
	}
	// The log is writable again and numbering skips nothing.
	if seq, err := m2.Append([]byte("next")); err != nil || seq != 4 {
		t.Fatalf("Append after repair = (%d, %v), want (4, nil)", seq, err)
	}
}

func TestCorruptedRecordEndsReplay(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := m.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// Flip a bit inside the second record's payload: CRC catches it, and
	// everything from that record on is discarded.
	path := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHdrLen + 8 + 1
	blob[segHdrLen+recLen+recHdrLen+8] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, dir, Options{})
	if m2.LastSeq() != 1 {
		t.Fatalf("LastSeq after corruption = %d, want 1", m2.LastSeq())
	}
	_, seqs, _ := replayAll(t, m2)
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("replayed seqs = %v, want [1]", seqs)
	}
}

func TestCheckpointRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	state := []byte("zero")
	writeState := func(w io.Writer, wm uint64) error {
		_, err := w.Write(state)
		return err
	}

	if _, err := m.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	state = []byte("after-a")
	gen, wm, err := m.Checkpoint(writeState)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if gen != 1 || wm != 1 {
		t.Fatalf("Checkpoint = (gen %d, wm %d), want (1, 1)", gen, wm)
	}

	if _, err := m.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	state = []byte("after-b")
	if gen, wm, err = m.Checkpoint(writeState); err != nil || gen != 2 || wm != 2 {
		t.Fatalf("second Checkpoint = (gen %d, wm %d, %v), want (2, 2, nil)", gen, wm, err)
	}

	if _, err := m.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	state = []byte("after-c")
	if gen, wm, err = m.Checkpoint(writeState); err != nil || gen != 3 || wm != 3 {
		t.Fatalf("third Checkpoint = (gen %d, wm %d, %v), want (3, 3, nil)", gen, wm, err)
	}

	// Retention after checkpoint 3: checkpoints 2 and 3, segments 3 and 4.
	want := map[string]bool{ckptName(2): true, ckptName(3): true, segName(3): true, segName(4): true}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range ents {
		got[e.Name()] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("missing retained file %s (have %v)", n, got)
		}
	}
	for n := range got {
		if !want[n] {
			t.Errorf("file %s should have been pruned", n)
		}
	}
	m.Close()

	m2 := mustOpen(t, dir, Options{})
	ckpt, seqs, _ := replayAll(t, m2)
	if string(ckpt) != "after-c" {
		t.Fatalf("recovered checkpoint payload %q, want \"after-c\"", ckpt)
	}
	if len(seqs) != 0 {
		t.Fatalf("replayed %d records past a current checkpoint, want 0", len(seqs))
	}
}

func TestCorruptCheckpointFallsBackOneGeneration(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{})
	state := ""
	writeState := func(w io.Writer, wm uint64) error {
		_, err := io.WriteString(w, state)
		return err
	}
	if _, err := m.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	state = "ckpt-1-state"
	if _, _, err := m.Checkpoint(writeState); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	state = "ckpt-2-state"
	if _, _, err := m.Checkpoint(writeState); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Corrupt the newest checkpoint: recovery must fall back to ckpt 1 and
	// replay records 2 ("b", segment 2) and 3 ("c", segment 3).
	path := filepath.Join(dir, ckptName(2))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, dir, Options{})
	ckpt, seqs, datas := replayAll(t, m2)
	if string(ckpt) != "ckpt-1-state" {
		t.Fatalf("fallback restored %q, want \"ckpt-1-state\"", ckpt)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 ||
		string(datas[0]) != "b" || string(datas[1]) != "c" {
		t.Fatalf("fallback replay = %v / %q, want [2 3] / [b c]", seqs, datas)
	}
	info, err := m2.Recover(nil, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointGen != 1 || info.SkippedCheckpoints != 1 {
		t.Fatalf("RecoveryInfo = %+v, want CheckpointGen 1, SkippedCheckpoints 1", info)
	}
}

func TestTmpFilesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ckptName(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("interrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived Open: %v", err)
	}
	if !m.Empty() {
		t.Fatal("directory with only a tmp file should be Empty")
	}
}

func TestCrashedManagerRefusesAllWork(t *testing.T) {
	dir := t.TempDir()
	crashNext := false
	m := mustOpen(t, dir, Options{Failpoint: func(fp Failpoint) int {
		if crashNext {
			return 0
		}
		return -1
	}})
	if _, err := m.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	crashNext = true
	if _, err := m.Append([]byte("boom")); err != ErrInjectedCrash {
		t.Fatalf("Append at failpoint = %v, want ErrInjectedCrash", err)
	}
	crashNext = false
	if _, err := m.Append([]byte("after")); err != ErrInjectedCrash {
		t.Fatalf("Append after crash = %v, want ErrInjectedCrash (poisoned)", err)
	}
	if _, _, err := m.Checkpoint(func(io.Writer, uint64) error { return nil }); err != ErrInjectedCrash {
		t.Fatalf("Checkpoint after crash = %v, want ErrInjectedCrash", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after crash: %v", err)
	}
	// The durable prefix survives.
	m2 := mustOpen(t, dir, Options{})
	_, seqs, _ := replayAll(t, m2)
	if len(seqs) != 1 {
		t.Fatalf("replayed %d records, want the 1 pre-crash record", len(seqs))
	}
}

func TestEventRoundTrip(t *testing.T) {
	args := types.Tuple{types.NewInt(7), types.NewFloat(2.5), types.NewString("x"), types.NewBool(true)}
	for _, insert := range []bool{true, false} {
		b := AppendEvent(nil, "orders", insert, args)
		rel, ins, got, err := DecodeEvent(b)
		if err != nil {
			t.Fatalf("DecodeEvent: %v", err)
		}
		if rel != "orders" || ins != insert {
			t.Fatalf("DecodeEvent = (%q, %v), want (orders, %v)", rel, ins, insert)
		}
		if types.EncodeKey(got) != types.EncodeKey(args) {
			t.Fatalf("args %v != %v", got, args)
		}
	}
}

func TestDecodeEventErrors(t *testing.T) {
	good := AppendEvent(nil, "R", true, types.Tuple{types.NewInt(1)})
	cases := [][]byte{
		nil,
		{},
		{9},                // bad op byte
		good[:3],           // truncated relation length
		good[:len(good)/2], // truncated args
	}
	for i, b := range cases {
		if _, _, _, err := DecodeEvent(b); err == nil {
			t.Errorf("case %d (%d bytes): DecodeEvent accepted malformed input", i, len(b))
		}
	}
}

func TestSyncModeAppends(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, Options{Sync: true})
	for i := 0; i < 10; i++ {
		if _, err := m.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("synced Append: %v", err)
		}
	}
	m.Close()
	m2 := mustOpen(t, dir, Options{})
	_, seqs, _ := replayAll(t, m2)
	if len(seqs) != 10 {
		t.Fatalf("replayed %d, want 10", len(seqs))
	}
}

// TestAppendEncodedGoldenRecord pins the on-disk bytes of one appended event
// record and requires the pre-encoded append path to write exactly what
// AppendBatch writes for the same events: the record format is not this
// path's to change.
func TestAppendEncodedGoldenRecord(t *testing.T) {
	evs := []struct {
		rel    string
		insert bool
		args   types.Tuple
	}{
		{"bids", true, types.Tuple{types.NewInt(7), types.NewFloat(2.5)}},
		{"asks", false, types.Tuple{types.NewInt(-1), types.NewString("x"), types.NewBool(true)}},
		{"bids", false, types.Tuple{types.NewInt(7), types.NewFloat(2.5)}},
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := mustOpen(t, dirA, Options{}), mustOpen(t, dirB, Options{})
	var datas, encs [][]byte
	var enc []byte
	for i, ev := range evs {
		datas = append(datas, AppendEvent(nil, ev.rel, ev.insert, ev.args))
		enc = AppendEventRecord(enc, ev.rel, ev.insert, ev.args)
		if i == 0 { // two producers' buffers in one group
			encs, enc = append(encs, enc), nil
		}
	}
	encs = append(encs, enc, nil)
	lastA, err := a.AppendBatch(datas)
	if err != nil {
		t.Fatal(err)
	}
	lastB, err := b.AppendEncoded(encs)
	if err != nil {
		t.Fatal(err)
	}
	if lastA != 3 || lastB != 3 {
		t.Fatalf("last seqs = %d, %d, want 3, 3", lastA, lastB)
	}
	segA, _ := os.ReadFile(filepath.Join(dirA, segName(1)))
	segB, _ := os.ReadFile(filepath.Join(dirB, segName(1)))
	if !bytes.Equal(segA, segB) {
		t.Fatalf("AppendEncoded wrote different bytes than AppendBatch:\n%x\n%x", segA, segB)
	}
	const golden = "23000000" + "460d097e" + // payload length 35, CRC
		"0100000000000000" + // seq 1
		"01" + "04000000" + "62696473" + // insert, "bids"
		"01" + "0700000000000000" + // int 7
		"02" + "0000000000000440" // float 2.5
	first := segA[segHdrLen : segHdrLen+recHdrLen+0x23]
	if got := fmt.Sprintf("%x", first); got != golden {
		t.Fatalf("first record = %s\nwant          %s", got, golden)
	}

	// A buffer that is not a run of whole records is refused before anything
	// reaches the file.
	for _, bad := range [][]byte{{1, 2, 3}, enc[:len(enc)-1], append([]byte{0xff, 0xff, 0xff, 0x7f}, enc[4:]...)} {
		if _, err := b.AppendEncoded([][]byte{enc, bad}); err == nil {
			t.Fatalf("AppendEncoded accepted malformed buffer %x", bad)
		}
	}
	if b.LastSeq() != 3 {
		t.Fatalf("refused appends moved the sequence to %d", b.LastSeq())
	}
	if segB2, _ := os.ReadFile(filepath.Join(dirB, segName(1))); !bytes.Equal(segB, segB2) {
		t.Fatal("refused appends wrote to the segment")
	}
}
