package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	rt "dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/server"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// The traced run measures each layer from outside the program: the same
// generated requests are replayed through every layer's public functions
// with a span around each call. Stage clocks inside internal/ are a later
// change; until then the difference between the in-process end-to-end
// total and the layers' sum is reported as server.unattributed_*.

// span is one timed call. Spans of one request share Req; Parent is the
// index of the span that caused this one (-1 for a root).
type span struct {
	Name   uint16
	Parent int32
	Req    uint32
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// Fixed span names; per-query apply spans follow at spanFirstQuery+i.
const (
	spanClientRequest uint16 = iota
	spanWire
	spanParse
	spanWALLog
	spanWALEncode
	spanWALAppend
	spanWALSync
	spanFanout
	spanApply
	spanPrepare
	spanBuild
	spanFirstQuery
)

var fixedSpanNames = []string{
	"client.request", "wire.client", "server.parse", "wal.log", "wal.encode",
	"wal.append", "wal.sync", "engine.fanout", "runtime.apply",
	"compiler.prepare", "compiler.build",
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	spans []span
	reqs  uint32
}

func newRecorder(w *workload) *recorder {
	r := &recorder{epoch: time.Now(), names: append([]string(nil), fixedSpanNames...)}
	for _, q := range w.queries {
		r.names = append(r.names, "runtime.apply."+q.label)
	}
	return r
}

func (r *recorder) nextRequest() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records a finished span and returns its index.
func (r *recorder) add(name uint16, parent int32, req uint32, t0, t1 time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, parent, req, int64(t0.Sub(r.epoch)), int64(t1.Sub(r.epoch))})
	return int32(len(r.spans) - 1)
}

// open starts a span whose children are recorded before it ends.
func (r *recorder) open(name uint16, req uint32) int32 {
	now := time.Now()
	return r.add(name, -1, req, now, now)
}

func (r *recorder) close(i int32) {
	now := time.Now()
	r.mu.Lock()
	r.spans[i].End = int64(now.Sub(r.epoch))
	r.mu.Unlock()
}

// layerRow aggregates one span name. Self time is a span's duration minus
// what its child spans cover.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs float64 `json:"total_ns"`
	SelfNs  float64 `json:"self_ns"`
}

func (r *recorder) table() []layerRow {
	rows := make([]layerRow, len(r.names))
	for i, n := range r.names {
		rows[i].Name = n
	}
	for _, s := range r.spans {
		d := float64(s.End - s.Start)
		rows[s.Name].Count++
		rows[s.Name].TotalNs += d
		rows[s.Name].SelfNs += d
		if s.Parent >= 0 {
			rows[r.spans[s.Parent].Name].SelfNs -= d
		}
	}
	return rows
}

// stubServer accepts one connection and acknowledges every request at
// once, so a client call against it costs what the client's encoding, its
// two socket calls and the loopback hop cost.
func stubServer() (addr string, done <-chan struct{}, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("BATCH ")); ok {
				n, _ := strconv.Atoi(string(rest))
				for i := 0; i < n && sc.Scan(); i++ {
				}
			}
			if _, err := conn.Write([]byte("OK\n")); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), finished, nil
}

// renderRequests writes the chunk's requests as the client puts them on
// the wire, for the parse pass to read back.
func renderRequests(buf *bytes.Buffer, reqs [][]stream.Event, batch int) {
	for _, req := range reqs {
		if batch > 1 {
			fmt.Fprintf(buf, "BATCH %d\n", len(req))
		}
		for _, ev := range req {
			cmd := "INSERT"
			if ev.Op == stream.Delete {
				cmd = "DELETE"
			}
			parts := make([]string, len(ev.Args))
			for i, v := range ev.Args {
				parts[i] = v.String()
			}
			fmt.Fprintf(buf, "%s %s %s\n", cmd, ev.Relation, strings.Join(parts, "|"))
		}
	}
}

// parseDelta is the server's text path for one delta line, rebuilt from
// its public pieces: the line split and server.ParseValue per field.
func parseDelta(cat *schema.Catalog, line string) (stream.Event, error) {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	rel, valstr, _ := strings.Cut(rest, " ")
	r, ok := cat.Relation(rel)
	if !ok {
		return stream.Event{}, fmt.Errorf("unknown relation %q", rel)
	}
	parts := strings.Split(valstr, "|")
	if len(parts) != len(r.Columns) {
		return stream.Event{}, fmt.Errorf("%s expects %d values, got %d", rel, len(r.Columns), len(parts))
	}
	args := make(types.Tuple, len(parts))
	for i, p := range parts {
		v, err := server.ParseValue(r.Columns[i].Type, p)
		if err != nil {
			return stream.Event{}, err
		}
		args[i] = v
	}
	op := stream.Insert
	if strings.EqualFold(cmd, "DELETE") {
		op = stream.Delete
	}
	return stream.Event{Op: op, Relation: rel, Args: args}, nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// layerTotals is what the replay measured besides the spans.
type layerTotals struct {
	events, requests int
	parseAllocs      uint64
	applyAllocs      uint64
	instrumentedNs   float64
	encodedBytes     int64
	syncUs           []float64
	loadgenCPUS      float64
	replayNs         float64
	replayed         int
	recoverOpenMs    float64
	checkpointMs     []float64
	checkpointBytes  int64
	stateBytes       uint64
	stateEntries     int
	sharedMaps       int
	resultUs         []float64
}

// replayLayers sends every connection's stream, request by request,
// through each layer in turn. Within a chunk the layers run one after the
// other over all of the chunk's requests, so allocation counts can be
// read per layer and one layer's garbage is less often collected on
// another's clock.
func replayLayers(cfg *runConfig, rec *recorder) (*layerTotals, error) {
	w := cfg.w
	cat := w.cat()
	tot := &layerTotals{}

	// compiler: prepare and build every standing query, then install them
	// the way the server does (instrumented, sharing maps).
	sink := metrics.New()
	reg := engine.NewRegistry(true)
	plain := make([]*engine.Toaster, len(w.queries))
	instrumented := make([]*engine.Toaster, len(w.queries))
	for i, q := range w.queries {
		t0 := time.Now()
		pq, err := engine.Prepare(q.sql, cat)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if plain[i], err = engine.NewToaster(pq, rt.Options{NoMetrics: true}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		rec.add(spanPrepare, -1, 0, t0, t1)
		rec.add(spanBuild, -1, 0, t1, t2)
		if instrumented[i], err = engine.NewToaster(pq, rt.Options{Metrics: metrics.New(), MetricsLabel: q.label}); err != nil {
			return nil, err
		}
		name := w.serverName(i)
		if err := reg.Begin(name, q.sql); err != nil {
			return nil, err
		}
		tmp, err := engine.NewToaster(pq, rt.Options{NoMetrics: true})
		if err != nil {
			return nil, err
		}
		if _, err := reg.Install(name, pq, tmp, 0, rt.Options{Metrics: sink, MetricsLabel: name}); err != nil {
			return nil, err
		}
	}

	walDir, err := os.MkdirTemp(cfg.tmpRoot, "layers-wal-")
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer func() { _ = log.Close() }() // closed on the success path below; this covers error returns

	stubAddr, stubDone, err := stubServer()
	if err != nil {
		return nil, err
	}
	client, err := server.Dial(stubAddr)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = client.Close() // ends the stub's scan loop
		<-stubDone
	}()

	perConn := cfg.eventsPerConn()
	syncEvery := max(1, perConn*w.conns/w.batch/200)
	var wire bytes.Buffer
	var datas [][]byte
	for c := 0; c < w.conns; c++ {
		src := w.newSource(cfg.seed, c)
		for left := perConn; left > 0; {
			cpu0 := selfCPUSeconds()
			chunk := src.take(min(left, chunkEvents))
			left -= len(chunk)
			reqs := stream.Batches(chunk, w.batch)
			first := rec.reqs + 1
			rec.reqs += uint32(len(reqs))
			tot.events += len(chunk)
			tot.requests += len(reqs)

			// wire: the public client against the stub.
			for i, req := range reqs {
				t0 := time.Now()
				err := send(client, w.batch, req)
				rec.add(spanWire, -1, first+uint32(i), t0, time.Now())
				if err != nil {
					return nil, fmt.Errorf("stub round trip: %w", err)
				}
			}
			tot.loadgenCPUS += selfCPUSeconds() - cpu0

			// server.parse: scan the rendered lines and parse each delta.
			wire.Reset()
			renderRequests(&wire, reqs, w.batch)
			sc := bufio.NewScanner(bytes.NewReader(wire.Bytes()))
			sc.Buffer(make([]byte, 64*1024), 1024*1024)
			m0 := mallocs()
			for i, req := range reqs {
				t0 := time.Now()
				if w.batch > 1 {
					sc.Scan() // the BATCH header
				}
				for range req {
					sc.Scan()
					if _, err := parseDelta(cat, sc.Text()); err != nil {
						return nil, fmt.Errorf("parse replay: %w", err)
					}
				}
				rec.add(spanParse, -1, first+uint32(i), t0, time.Now())
			}
			tot.parseAllocs += mallocs() - m0

			// wal: encode each event, append the request as one group.
			for i, req := range reqs {
				id := first + uint32(i)
				p := rec.open(spanWALLog, id)
				t0 := time.Now()
				datas = datas[:0]
				for _, ev := range req {
					d := wal.AppendEvent(nil, ev.Relation, ev.Op == stream.Insert, ev.Args)
					tot.encodedBytes += int64(len(d))
					datas = append(datas, d)
				}
				t1 := time.Now()
				_, err := log.AppendBatch(datas)
				t2 := time.Now()
				rec.add(spanWALEncode, p, id, t0, t1)
				rec.add(spanWALAppend, p, id, t1, t2)
				rec.close(p)
				if err != nil {
					return nil, err
				}
				if int(id)%syncEvery == 0 {
					t0 := time.Now()
					if err := log.Sync(); err != nil {
						return nil, err
					}
					t1 := time.Now()
					rec.add(spanWALSync, -1, id, t0, t1)
					tot.syncUs = append(tot.syncUs, float64(t1.Sub(t0))/1e3)
				}
			}

			// engine: the registry fan-out over the installed query set.
			for i, req := range reqs {
				t0 := time.Now()
				var err error
				if len(req) == 1 {
					err = reg.OnEvent(req[0])
				} else {
					err = reg.OnEventBatch(req)
				}
				rec.add(spanFanout, -1, first+uint32(i), t0, time.Now())
				if err != nil {
					return nil, fmt.Errorf("fan-out replay: %w", err)
				}
			}

			// runtime: each query's triggers alone, uninstrumented.
			m0 = mallocs()
			for i, req := range reqs {
				id := first + uint32(i)
				p := rec.open(spanApply, id)
				for q, t := range plain {
					t0 := time.Now()
					err := t.OnEventBatch(req)
					rec.add(spanFirstQuery+uint16(q), p, id, t0, time.Now())
					if err != nil {
						return nil, err
					}
				}
				rec.close(p)
			}
			tot.applyAllocs += mallocs() - m0

			// metrics: the same with a sink attached, timed call by call
			// like the spans above but not part of the request's trace.
			for _, req := range reqs {
				for _, t := range instrumented {
					t0 := time.Now()
					err := t.OnEventBatch(req)
					tot.instrumentedNs += float64(time.Since(t0))
					if err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// State at end of stream, and what reading it costs.
	for _, name := range reg.Names() {
		eng, _ := reg.Get(name)
		tot.stateEntries += eng.MemEntries()
		t := eng.(*engine.Toaster)
		_, b := t.OwnedFootprint()
		tot.stateBytes += b
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, err := t.Results(); err != nil {
				return nil, err
			}
			tot.resultUs = append(tot.resultUs, float64(time.Since(t0))/1e3)
		}
	}
	for _, p := range reg.Pool() {
		if p.Refs > 1 {
			tot.sharedMaps++
		}
	}

	// wal, read side: replay and decode the log just written, reopen it,
	// then checkpoint the reference state.
	t0 := time.Now()
	_, _, err = log.ReplayRange(0, 0, func(_ uint64, data []byte) error {
		tot.replayed++
		_, _, _, err := wal.DecodeEvent(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	tot.replayNs = float64(time.Since(t0))
	if err := log.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if log, err = wal.Open(walDir, wal.Options{}); err != nil {
		return nil, err
	}
	_, err = log.Recover(func(io.Reader) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		return nil, err
	}
	tot.recoverOpenMs = float64(time.Since(t0)) / 1e6
	for i := 0; i < minTailCycles; i++ {
		cw := &countingWriter{}
		t0 := time.Now()
		_, _, err := log.Checkpoint(func(out io.Writer, watermark uint64) error {
			for _, t := range plain {
				if err := t.StateSnapshot(io.MultiWriter(out, cw), watermark); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		tot.checkpointMs = append(tot.checkpointMs, float64(time.Since(t0))/1e6)
		tot.checkpointBytes = cw.n
	}
	return tot, log.Close()
}

// inprocIngest sets an in-process server up once and runs the measured
// ingest against it, with or without request spans.
func inprocIngest(cfg *runConfig, rec *recorder) (*e2eResult, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "inproc-wal-")
	if err != nil {
		return nil, err
	}
	res := &e2eResult{Correct: true}
	c := *cfg
	c.rec = rec
	s, srcs, _, err := setUp(&c, &inprocHost{w: cfg.w}, res, dir)
	if err != nil {
		return nil, err
	}
	err = measuredIngest(&c, s, srcs, res)
	s.shutdown(false)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("in-process ingest: %d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstErr)
	}
	return res, os.RemoveAll(dir)
}

// walGroupCommits reads group_commits from a METRICS body.
func walGroupCommits(lines []string) float64 {
	for _, l := range lines {
		if !strings.HasPrefix(l, "wal ") {
			continue
		}
		for _, f := range strings.Fields(l) {
			if v, ok := strings.CutPrefix(f, "group_commits="); ok {
				n, _ := strconv.ParseFloat(v, 64)
				return n
			}
		}
	}
	return 0
}

// traceArtefact is what a traced run leaves in <out>/trace.<workload>.json.
type traceArtefact struct {
	Info    runInfo           `json:"info"`
	Layers  []layerRow        `json:"layers"`
	Metrics map[string]metric `json:"metrics"`
	// Spans of the first traceSpanRequests requests; the table above
	// aggregates all of them.
	SpanNames []string `json:"span_names"`
	Spans     []span   `json:"spans"`
}

const traceSpanRequests = 2000

// runTraced produces the per_layer metrics: an untraced and a traced
// in-process end-to-end run, then the layer replay.
func runTraced(cfg *runConfig, info runInfo, outDir string) (map[string]metric, error) {
	w := cfg.w
	untraced, err := inprocIngest(cfg, nil)
	if err != nil {
		return nil, err
	}
	// Both in-process runs come first, on the same small heap: after the
	// replay this process holds its spans and engines, and round trips
	// slow down with the collector's work.
	inprocRec := newRecorder(w)
	traced, err := inprocIngest(cfg, inprocRec)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(w)
	requests := cfg.eventsPerConn() * w.conns / w.batch
	rec.spans = make([]span, 0, requests*(8+len(w.queries))+2*len(w.queries))
	tot, err := replayLayers(cfg, rec)
	if err != nil {
		return nil, err
	}

	rows := rec.table()
	total := func(name uint16) float64 { return rows[name].TotalNs }
	// Per-query spans are leaves; their parent runtime.apply also covers
	// the recorder's own work between them, so triggers are summed from
	// the leaves.
	var applyNs float64
	for q := range w.queries {
		applyNs += total(spanFirstQuery + uint16(q))
	}
	ev, rq := float64(tot.events), float64(tot.requests)
	// The in-process total is a request's typical latency (median over
	// segments), as events_per_s is end to end.
	inprocRqNs := typicalRequestNs(untraced.ackNs)
	// The layers a request passes through, as self times; engine.fanout
	// already contains the triggers and their instrumentation.
	layersNs := rows[spanWire].SelfNs + rows[spanParse].SelfNs + rows[spanWALEncode].SelfNs +
		rows[spanWALAppend].SelfNs + rows[spanFanout].SelfNs
	m := map[string]metric{
		"wire.client_stub_ns_per_event":       {total(spanWire) / ev, "ns/event"},
		"server.parse_ns_per_event":           {total(spanParse) / ev, "ns/event"},
		"server.parse_allocs_per_event":       {float64(tot.parseAllocs) / ev, "allocs/event"},
		"server.inproc_ns_per_event":          {inprocRqNs / float64(w.batch), "ns/event"},
		"server.inproc_ns_per_request":        {inprocRqNs, "ns/request"},
		"server.unattributed_ns_per_request":  {inprocRqNs - layersNs/rq, "ns/request"},
		"server.group_commits":                {walGroupCommits(untraced.MetricsLines), "count"},
		"wal.encode_ns_per_event":             {total(spanWALEncode) / ev, "ns/event"},
		"wal.encode_bytes_per_event":          {float64(tot.encodedBytes) / ev, "bytes/event"},
		"wal.append_ns_per_event":             {total(spanWALAppend) / ev, "ns/event"},
		"wal.sync_us_p50":                     {median(tot.syncUs), "us"},
		"wal.replay_ns_per_event":             {tot.replayNs / float64(tot.replayed), "ns/event"},
		"wal.recover_open_ms":                 {tot.recoverOpenMs, "ms"},
		"wal.checkpoint_ms":                   {median(tot.checkpointMs), "ms"},
		"wal.checkpoint_bytes":                {float64(tot.checkpointBytes), "bytes"},
		"runtime.apply_ns_per_event":          {applyNs / ev, "ns/event"},
		"runtime.apply_allocs_per_event":      {float64(tot.applyAllocs) / ev, "allocs/event"},
		"runtime.state_bytes":                 {float64(tot.stateBytes), "bytes"},
		"engine.state_entries":                {float64(tot.stateEntries), "count"},
		"engine.fanout_ns_per_event":          {total(spanFanout) / ev, "ns/event"},
		"engine.fanout_overhead_ns_per_event": {(total(spanFanout) - tot.instrumentedNs) / ev, "ns/event"},
		"engine.shared_maps":                  {float64(tot.sharedMaps), "count"},
		"engine.result_us_p50":                {median(tot.resultUs), "us"},
		"compiler.prepare_ms":                 {total(spanPrepare) / 1e6, "ms"},
		"compiler.build_ms":                   {total(spanBuild) / 1e6, "ms"},
		"metrics.overhead_ns_per_event":       {(tot.instrumentedNs - applyNs) / ev, "ns/event"},
		"loadgen.cpu_s_per_mevent":            {tot.loadgenCPUS / ev * 1e6, "s/Mevent"},
		"loadgen.reader_late_ms_p99":          {untraced.ReadLateMsP99, "ms"},
		"trace.coverage":                      {(layersNs / rq) / inprocRqNs, "ratio"},
		"trace.overhead_frac":                 {typicalRequestNs(traced.ackNs)/inprocRqNs - 1, "ratio"},
	}
	// Requests per WAL group since boot, warm-up included.
	m["server.group_size_mean"] = metric{float64(untraced.Requests+untraced.Warmup/w.batch) / m["server.group_commits"].Value, "requests"}
	// The first three standing queries on their own (q1 boots the server).
	for i := 0; i < 3; i++ {
		m[fmt.Sprintf("runtime.apply_ns_per_event.q%d", i+1)] = metric{total(spanFirstQuery+uint16(i)) / ev, "ns/event"}
	}

	rows[spanClientRequest] = inprocRec.table()[spanClientRequest]
	art := traceArtefact{Info: info, Layers: rows, Metrics: m, SpanNames: rec.names}
	kept := map[int32]int32{} // index in rec.spans → index in the artefact, for Parent
	for i, s := range rec.spans {
		if s.Req > traceSpanRequests {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = kept[s.Parent] // a parent is recorded before its children
		}
		kept[int32(i)] = int32(len(art.Spans))
		art.Spans = append(art.Spans, s)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(art)
	if err != nil {
		return nil, err
	}
	return m, os.WriteFile(filepath.Join(outDir, "trace."+w.name+".json"), b, 0o644)
}
