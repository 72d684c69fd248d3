package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters, gauges, and cumulative-bucket histograms).
func (s *Snapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE dbt_uptime_seconds gauge\ndbt_uptime_seconds %g\n", s.UptimeSeconds)
	fmt.Fprintf(w, "# TYPE dbt_events_total counter\ndbt_events_total %d\n", s.Events)
	fmt.Fprintf(w, "# TYPE dbt_latency_sample_interval gauge\ndbt_latency_sample_interval %d\n", s.SampleInterval)
	fmt.Fprintf(w, "# TYPE dbt_heap_alloc_bytes gauge\ndbt_heap_alloc_bytes %d\n", s.Heap.HeapAllocBytes)
	fmt.Fprintf(w, "# TYPE dbt_heap_objects gauge\ndbt_heap_objects %d\n", s.Heap.HeapObjects)
	fmt.Fprintf(w, "# TYPE dbt_gc_total counter\ndbt_gc_total %d\n", s.Heap.NumGC)

	if len(s.Triggers) > 0 {
		fmt.Fprintf(w, "# TYPE dbt_trigger_events_total counter\n")
		for _, t := range s.Triggers {
			fmt.Fprintf(w, "dbt_trigger_events_total{%s} %d\n", triggerLabels(t), t.Count)
		}
		fmt.Fprintf(w, "# TYPE dbt_trigger_errors_total counter\n")
		for _, t := range s.Triggers {
			fmt.Fprintf(w, "dbt_trigger_errors_total{%s} %d\n", triggerLabels(t), t.Errors)
		}
		fmt.Fprintf(w, "# TYPE dbt_trigger_latency_ns histogram\n")
		for _, t := range s.Triggers {
			writePromHistogram(w, "dbt_trigger_latency_ns", triggerLabels(t), t.Latency)
		}
	}
	if len(s.Maps) > 0 {
		fmt.Fprintf(w, "# TYPE dbt_map_entries gauge\n")
		for _, m := range s.Maps {
			fmt.Fprintf(w, "dbt_map_entries{%s} %d\n", mapLabels(m), m.Entries)
		}
		fmt.Fprintf(w, "# TYPE dbt_map_entries_peak gauge\n")
		for _, m := range s.Maps {
			fmt.Fprintf(w, "dbt_map_entries_peak{%s} %d\n", mapLabels(m), m.Peak)
		}
		fmt.Fprintf(w, "# HELP dbt_map_approx_bytes layout-based estimate, not an accounting\n")
		fmt.Fprintf(w, "# TYPE dbt_map_approx_bytes gauge\n")
		for _, m := range s.Maps {
			fmt.Fprintf(w, "dbt_map_approx_bytes{%s} %d\n", mapLabels(m), m.ApproxBytes)
		}
	}
	if d := s.WAL; d != nil {
		fmt.Fprintf(w, "# TYPE dbt_wal_appends_total counter\ndbt_wal_appends_total %d\n", d.Appends)
		fmt.Fprintf(w, "# TYPE dbt_wal_appended_bytes_total counter\ndbt_wal_appended_bytes_total %d\n", d.AppendedBytes)
		fmt.Fprintf(w, "# TYPE dbt_wal_syncs_total counter\ndbt_wal_syncs_total %d\n", d.Syncs)
		fmt.Fprintf(w, "# TYPE dbt_wal_replay_bytes_total counter\ndbt_wal_replay_bytes_total %d\n", d.ReplayBytes)
		fmt.Fprintf(w, "# TYPE dbt_wal_replay_records_total counter\ndbt_wal_replay_records_total %d\n", d.ReplayRecords)
		fmt.Fprintf(w, "# TYPE dbt_wal_group_commits_total counter\ndbt_wal_group_commits_total %d\n", d.GroupCommits)
		fmt.Fprintf(w, "# TYPE dbt_wal_group_size histogram\n")
		writePromHistogram(w, "dbt_wal_group_size", `stage="commit"`, d.GroupSize)
		fmt.Fprintf(w, "# TYPE dbt_wal_leader_handoffs_total counter\ndbt_wal_leader_handoffs_total %d\n", d.LeaderHandoffs)
		fmt.Fprintf(w, "# TYPE dbt_wal_leader_yields_total counter\ndbt_wal_leader_yields_total %d\n", d.LeaderYields)
	}
}

// Label values are rendered with %q: Go's quoting escapes the backslash,
// double-quote, and newline exactly as the Prometheus exposition format
// requires.
func triggerLabels(t TriggerSnapshot) string {
	return fmt.Sprintf(`query=%q,relation=%q,op=%q`, t.Label, t.Relation, t.Op)
}

func mapLabels(m MapSnapshot) string {
	return fmt.Sprintf(`query=%q,map=%q,layout=%q`, m.Label, m.Name, m.Layout)
}

func writePromHistogram(w io.Writer, name, labels string, h HistogramSnapshot) {
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if c == 0 && i != len(h.Buckets)-1 {
			continue // keep the exposition small; cumulative sums stay correct
		}
		le := "+Inf"
		if i < len(h.Buckets)-1 {
			le = fmt.Sprintf("%d", BucketBound(i))
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, h.Sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
}

// HTTPServer is a running metrics endpoint.
type HTTPServer struct {
	Addr string // bound address
	srv  *http.Server
	ln   net.Listener
}

// Close shuts the endpoint down.
func (h *HTTPServer) Close() error { return h.srv.Close() }

// Serve starts an HTTP endpoint exposing the sink:
//
//	/metrics        Prometheus text format
//	/metrics.json   full Snapshot as JSON
//	/trace.json     drains the structured trigger-firing trace ring
//	/debug/vars     expvar (includes a "dbtoaster" var with the snapshot)
//	/debug/pprof/   the standard pprof handlers
//
// It binds addr (e.g. "127.0.0.1:9090" or ":0") and serves until Close.
func Serve(addr string, sink *Sink) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		sink.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sink.Snapshot())
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Draining: each GET returns records buffered since the last
		// drain (the ring holds at most TraceRingSize).
		enc.Encode(sink.Trace())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	publishExpvar(sink)
	h := &HTTPServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go h.srv.Serve(ln)
	return h, nil
}

var (
	expvarOnce sync.Once
	expvarSink atomic.Value // *Sink
)

// publishExpvar registers the snapshot under the process-global expvar
// namespace. expvar.Publish panics on duplicate names, so the registration
// runs once; later sinks replace the snapshot source.
func publishExpvar(sink *Sink) {
	expvarSink.Store(sink)
	expvarOnce.Do(func() {
		expvar.Publish("dbtoaster", expvar.Func(func() any {
			if s, _ := expvarSink.Load().(*Sink); s != nil {
				return s.Snapshot()
			}
			return nil
		}))
	})
}
