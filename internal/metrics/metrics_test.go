package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	if c.Inc() != 1 || c.Inc() != 2 {
		t.Error("Counter.Inc sequence wrong")
	}
	c.Add(10)
	if c.Load() != 12 {
		t.Errorf("Counter.Load = %d, want 12", c.Load())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Load() != 1 {
		t.Errorf("Gauge.Load = %d, want 1", g.Load())
	}
	g.Set(-5)
	if g.Load() != -5 {
		t.Errorf("Gauge.Set: %d", g.Load())
	}
	g.MaxTo(3)
	g.MaxTo(2) // lower value must not regress the high-water mark
	if g.Load() != 3 {
		t.Errorf("Gauge.MaxTo: %d, want 3", g.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Bucket 0 holds values below 2^histMinShift.
	if got := bucketOf(0); got != 0 {
		t.Errorf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(127); got != 0 {
		t.Errorf("bucketOf(127) = %d", got)
	}
	if got := bucketOf(128); got != 1 {
		t.Errorf("bucketOf(128) = %d", got)
	}
	if got := bucketOf(255); got != 1 {
		t.Errorf("bucketOf(255) = %d", got)
	}
	if got := bucketOf(256); got != 2 {
		t.Errorf("bucketOf(256) = %d", got)
	}
	// Huge values clamp into the top bucket instead of being dropped.
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Errorf("bucketOf(2^62) = %d, want %d", got, histBuckets-1)
	}
	if got := bucketOf(-7); got != 0 {
		t.Errorf("bucketOf(-7) = %d", got)
	}

	var h Histogram
	for _, v := range []int64{100, 200, 300, 1000, -1} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 1600 { // -1 clamps to 0
		t.Errorf("Sum = %d", h.Sum())
	}
	s := h.Snapshot()
	if s.Mean() != 320 {
		t.Errorf("Mean = %g", s.Mean())
	}
	// p50 of {0,100,200,300,1000}: rank 2 lands on 200 → bucket bound 255.
	if q := s.Quantile(0.5); q != 255 {
		t.Errorf("p50 = %d, want 255", q)
	}
	if q := s.Quantile(1.0); q != 1023 {
		t.Errorf("p100 = %d, want 1023", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestHistogramObserveNoAlloc pins the hot-path invariant: recording into
// a histogram (and bumping the trigger counters around it) performs zero
// heap allocations.
func TestHistogramObserveNoAlloc(t *testing.T) {
	var ts TriggerStats
	sink := New()
	allocs := testing.AllocsPerRun(100, func() {
		seq := ts.Count.Inc()
		if sink.Sampled(seq) {
			ts.Latency.Observe(int64(seq) * 137)
		}
		ts.Errors.Load()
	})
	if allocs != 0 {
		t.Errorf("record path allocs/op = %g, want 0", allocs)
	}
}

func TestSinkSampling(t *testing.T) {
	s := NewWithConfig(Config{SampleEvery: 8})
	if s.SampleInterval() != 8 {
		t.Errorf("interval = %d", s.SampleInterval())
	}
	n := 0
	for seq := uint64(1); seq <= 64; seq++ {
		if s.Sampled(seq) {
			n++
		}
	}
	if n != 8 {
		t.Errorf("sampled %d of 64, want 8", n)
	}
	// Non-power-of-two rounds down; 1 samples everything; 0 is the default.
	if NewWithConfig(Config{SampleEvery: 13}).SampleInterval() != 8 {
		t.Error("13 should round down to 8")
	}
	every := NewWithConfig(Config{SampleEvery: 1})
	for seq := uint64(1); seq <= 4; seq++ {
		if !every.Sampled(seq) {
			t.Fatalf("SampleEvery=1 must sample seq %d", seq)
		}
	}
	if New().SampleInterval() != 64 {
		t.Errorf("default interval = %d, want 64", New().SampleInterval())
	}
}

func TestSinkRegistrationDedup(t *testing.T) {
	s := New()
	a := s.Trigger("q", "R", true)
	b := s.Trigger("q", "R", true)
	if a != b {
		t.Error("same (label, relation, op) must share a series")
	}
	if s.Trigger("q", "R", false) == a || s.Trigger("p", "R", true) == a {
		t.Error("distinct series must not alias")
	}
	m1 := s.Map("q", "views", "int1")
	if s.Map("q", "views", "int1") != m1 {
		t.Error("same (label, name) must share gauges")
	}
	if s.WAL() != s.WAL() || s.Robust() != s.Robust() {
		t.Error("WAL and robust series must be singletons")
	}
}

func TestSnapshotAndLines(t *testing.T) {
	s := NewWithConfig(Config{SampleEvery: 1})
	tr := s.Trigger("main", "R", true)
	for i := 0; i < 10; i++ {
		seq := tr.Count.Inc()
		if s.Sampled(seq) {
			tr.Latency.Observe(500)
		}
	}
	tr.Errors.Inc()
	m := s.Map("main", "q_sum", "int1")
	m.EntryBytes.Set(30)
	for i := 0; i < 4; i++ {
		m.Peak.MaxTo(m.Entries.Inc())
	}
	m.Entries.Dec()

	snap := s.Snapshot()
	// Events derives from trigger counts (no separate per-event counter on
	// the hot path).
	if snap.Events != 10 {
		t.Errorf("Events = %d", snap.Events)
	}
	if len(snap.Triggers) != 1 || snap.Triggers[0].Count != 10 || snap.Triggers[0].Errors != 1 {
		t.Errorf("Triggers = %+v", snap.Triggers)
	}
	if snap.Triggers[0].Latency.Count != 10 {
		t.Errorf("latency samples = %d, want 10 (SampleEvery=1)", snap.Triggers[0].Latency.Count)
	}
	if len(snap.Maps) != 1 || snap.Maps[0].Entries != 3 || snap.Maps[0].Peak != 4 {
		t.Errorf("Maps = %+v", snap.Maps)
	}
	if snap.Maps[0].ApproxBytes != 3*30 {
		t.Errorf("ApproxBytes = %d", snap.Maps[0].ApproxBytes)
	}
	if snap.WAL != nil || snap.Robust != nil {
		t.Error("WAL and robust series never registered, must be nil")
	}

	text := strings.Join(snap.Lines(), "\n")
	for _, want := range []string{
		"events_total 10",
		"trigger main R insert count=10 errors=1",
		"map main q_sum entries=3 peak=4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Lines missing %q in:\n%s", want, text)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	s := New()
	s.Trigger("b", "S", false)
	s.Trigger("a", "R", true)
	s.Trigger("a", "R", false)
	s.Map("z", "m2", "generic")
	s.Map("a", "m1", "int1")
	snap := s.Snapshot()
	for i := 1; i < len(snap.Triggers); i++ {
		a, b := snap.Triggers[i-1], snap.Triggers[i]
		if a.Label > b.Label || (a.Label == b.Label && a.Relation > b.Relation) {
			t.Fatalf("triggers unsorted: %+v", snap.Triggers)
		}
	}
	if snap.Maps[0].Label != "a" || snap.Maps[1].Label != "z" {
		t.Fatalf("maps unsorted: %+v", snap.Maps)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := New()
	tr := s.Trigger("main", `he"llo`, true)
	tr.Count.Inc()
	tr.Latency.Observe(300)
	s.Map("main", "q", "int2").Entries.Inc()
	var b strings.Builder
	s.Snapshot().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE dbt_events_total counter",
		"dbt_events_total 1",
		`dbt_trigger_events_total{query="main",relation="he\"llo",op="insert"} 1`,
		`dbt_trigger_latency_ns_count{query="main",relation="he\"llo",op="insert"} 1`,
		`le="+Inf"`,
		`dbt_map_entries{query="main",map="q",layout="int2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

// TestPromHistogramCumulative checks the bucket rendering is cumulative
// even when zero buckets are elided.
func TestPromHistogramCumulative(t *testing.T) {
	var h Histogram
	h.Observe(100)     // bucket 0
	h.Observe(1 << 20) // much higher bucket
	var b strings.Builder
	writePromHistogram(&b, "x", `l="1"`, h.Snapshot())
	out := b.String()
	if !strings.Contains(out, `x_bucket{l="1",le="127"} 1`) {
		t.Errorf("low bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `x_bucket{l="1",le="+Inf"} 2`) {
		t.Errorf("+Inf bucket must be cumulative:\n%s", out)
	}
	if !strings.Contains(out, `x_count{l="1"} 2`) {
		t.Errorf("count wrong:\n%s", out)
	}
}

func TestServeHTTP(t *testing.T) {
	s := New()
	s.Trigger("main", "R", true).Count.Inc()
	h, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + h.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "dbt_events_total 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Events != 1 {
		t.Errorf("/metrics.json events = %d", snap.Events)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "dbtoaster") {
		t.Errorf("/debug/vars missing dbtoaster var:\n%s", out)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

func TestPeriodicWriter(t *testing.T) {
	s := New()
	path := filepath.Join(t.TempDir(), "BENCH_metrics.json")
	w := NewPeriodicWriter(s, path, 10*time.Millisecond)
	tr := s.Trigger("main", "R", true)
	for i := 0; i < 100; i++ {
		tr.Count.Inc()
	}
	time.Sleep(30 * time.Millisecond)
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var is IntervalSnapshot
	if err := json.Unmarshal(data, &is); err != nil {
		t.Fatalf("snapshot file not valid JSON: %v\n%s", err, data)
	}
	if is.Events != 100 {
		t.Errorf("events in file = %d, want 100", is.Events)
	}
	last := w.Last()
	if last == nil || last.Events != 100 {
		t.Errorf("Last() = %+v", last)
	}
	// Stop is idempotent.
	if err := w.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkConcurrent exercises concurrent registration + recording +
// snapshotting under the race detector.
func TestSinkConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := s.Trigger("main", "R", true)
			m := s.Map("main", "q", "int1")
			for i := 0; i < 1000; i++ {
				seq := tr.Count.Inc()
				if s.Sampled(seq) {
					tr.Latency.Observe(int64(i))
				}
				m.Peak.MaxTo(m.Entries.Inc())
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Snapshot()
		}
	}()
	wg.Wait()
	snap := s.Snapshot()
	if snap.Events != 4000 || snap.Triggers[0].Count != 4000 {
		t.Errorf("events=%d trigger count=%d, want 4000", snap.Events, snap.Triggers[0].Count)
	}
	if snap.Maps[0].Entries != 4000 || snap.Maps[0].Peak != 4000 {
		t.Errorf("map gauges = %+v", snap.Maps[0])
	}
}
