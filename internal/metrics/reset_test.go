package metrics

import (
	"strings"
	"testing"
)

// TestSinkReset: Reset zeroes every counter and histogram, restarts the
// uptime clock, and snaps map peaks to current entries — "measure from
// now" semantics for the server's RESET command.
func TestSinkReset(t *testing.T) {
	s := NewWithConfig(Config{SampleEvery: 1})
	tr := s.Trigger("main", "R", true)
	for i := 0; i < 5; i++ {
		tr.Count.Inc()
		tr.Latency.Observe(100)
	}
	m := s.Map("main", "q", "int1")
	m.Entries.Set(7)
	m.Peak.MaxTo(9)
	wal := s.WAL()
	wal.Appends.Add(4)
	wal.Checkpoints.Inc()
	wal.SyncNs.Observe(50)
	robust := s.Robust()
	robust.ShedRequests.Add(2)
	robust.Quarantines.Inc()

	s.Reset()
	snap := s.Snapshot()
	if snap.Events != 0 {
		t.Errorf("Events after Reset = %d", snap.Events)
	}
	if len(snap.Triggers) != 1 || snap.Triggers[0].Count != 0 || snap.Triggers[0].Latency.Count != 0 {
		t.Errorf("Triggers after Reset = %+v", snap.Triggers)
	}
	// Entries is live state, not a rate: it survives, and Peak snaps to it.
	if len(snap.Maps) != 1 || snap.Maps[0].Entries != 7 || snap.Maps[0].Peak != 7 {
		t.Errorf("Maps after Reset = %+v", snap.Maps)
	}
	if snap.WAL == nil || snap.WAL.Appends != 0 || snap.WAL.Checkpoints != 0 || snap.WAL.SyncNs.Count != 0 {
		t.Errorf("WAL after Reset = %+v", snap.WAL)
	}
	if snap.Robust == nil || snap.Robust.ShedRequests != 0 || snap.Robust.Quarantines != 0 {
		t.Errorf("Robust after Reset = %+v", snap.Robust)
	}

	// The series are still wired: recording after Reset shows up.
	tr.Count.Inc()
	wal.Appends.Inc()
	snap = s.Snapshot()
	if snap.Triggers[0].Count != 1 || snap.WAL.Appends != 1 {
		t.Errorf("recording after Reset lost: %+v, %+v", snap.Triggers[0], snap.WAL)
	}
}

// TestWALAndRobustLines: the textual METRICS rendering includes the WAL
// and the overload/failure-isolation series.
func TestWALAndRobustLines(t *testing.T) {
	s := New()
	s.Robust().Quarantines.Inc()
	wal := s.WAL()
	wal.Appends.Add(3)
	wal.AppendedBytes.Add(64)
	wal.Checkpoints.Inc()
	wal.CheckpointNs.Observe(5000)
	wal.CheckpointBytes.Add(128)

	text := strings.Join(s.Snapshot().Lines(), "\n")
	for _, want := range []string{"wal appends=3", "checkpoints=1", "robust shed_requests=0", "quarantines=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Lines missing %q in:\n%s", want, text)
		}
	}
}
