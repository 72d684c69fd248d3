package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbtoaster/internal/server"
	"dbtoaster/internal/stream"
)

// runConfig is one benchmark run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	// scale shrinks the frozen event counts (the self-test runs at 1/200).
	scale float64
	// tmpRoot holds the run's WAL directories; they are removed on exit.
	tmpRoot string
	// oracleEvents is the prefix on which the reference is checked against
	// the re-evaluating oracle.
	oracleEvents int
	// maxTailCycles caps each kind of tail cycle (the self-test stops at
	// the minimum).
	maxTailCycles int
	// dropRefEvent ≥ 0 drops that event from the reference (negative
	// self-test: the gate must then fail).
	dropRefEvent int
	// rec, when set, receives a span around every client call (the traced
	// in-process run).
	rec *recorder
}

// eventsPerConn is the measured event count of each connection, a multiple
// of the batch size so every request is full.
func (c *runConfig) eventsPerConn() int {
	n := int(float64(c.w.eventsPerSecond) * c.seconds * c.scale)
	n -= n % c.w.batch
	return max(n, c.w.batch)
}

// warmupPerConn events are sent untimed first; they are part of the stream
// and of the reference.
func (c *runConfig) warmupPerConn() int {
	n := int(float64(c.eventsPerConn()) * warmupFrac)
	n -= n % c.w.batch
	return max(n, c.w.batch)
}

// e2eResult is everything one end-to-end run observed.
type e2eResult struct {
	Correct   bool     `json:"correct"`
	Mismatch  []string `json:"mismatch,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FirstErr  string   `json:"first_error,omitempty"`

	Events   int `json:"events"`   // measured, all connections
	Requests int `json:"requests"` // measured, all connections
	Warmup   int `json:"warmup_events"`

	SetupS        []float64 `json:"setup_s"`
	IngestWallS   float64   `json:"ingest_wall_s"`
	ServerCPUS    float64   `json:"server_cpu_s"`
	HarnessCPUS   float64   `json:"harness_cpu_s"`
	ServerRSSMiB  float64   `json:"server_rss_mib"`
	WALBytes      int64     `json:"wal_bytes"`
	RecoverS      []float64 `json:"recover_s"`
	RegisterMs    []float64 `json:"register_ms"`
	CheckpointMs  float64   `json:"checkpoint_ms"`
	ReadLateMsP99 float64   `json:"read_late_ms_p99"`
	MetricsLines  []string  `json:"-"`

	// CPUSPerMevent holds the server's CPU seconds per million acked events
	// over each sampling interval of the ingest.
	CPUSPerMevent []float64 `json:"cpu_s_per_mevent_samples"`

	ackNs  [][]int64 // per connection, per measured request
	readNs []int64   // per paced read, from its due time
}

// session is the harness's view of one running server: the host plus the
// open client connections, closed before the host is stopped.
type session struct {
	h       host
	addr    string
	walDir  string
	clients []*server.Client
	res     *e2eResult
	resMu   sync.Mutex
	// acked counts measured events acknowledged so far, for the CPU sampler.
	acked atomic.Int64
}

// note counts one attempted operation and its failure, if any.
func (s *session) note(err error) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	s.res.Attempted++
	if err != nil {
		s.res.Failed++
		if s.res.FirstErr == "" {
			s.res.FirstErr = err.Error()
		}
	}
}

func (s *session) dial(n int) error {
	for i := 0; i < n; i++ {
		c, err := server.Dial(s.addr)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

func (s *session) closeClients() {
	for _, c := range s.clients {
		_ = c.Close() // the server sees EOF; nothing was in flight
	}
	s.clients = nil
}

func (s *session) shutdown(kill bool) {
	s.closeClients()
	s.h.stop(kill)
}

// send is one producer round trip: a BATCH of the events when batch > 1, a
// bare INSERT or DELETE line otherwise.
func send(c *server.Client, batch int, evs []stream.Event) error {
	if batch > 1 {
		return c.Batch(evs)
	}
	ev := evs[0]
	if ev.Op == stream.Delete {
		return c.Delete(ev.Relation, ev.Args...)
	}
	return c.Insert(ev.Relation, ev.Args...)
}

// produce drives one closed-loop connection through n events of src, batch
// events a request: generate a chunk (untimed), then one request after the
// other, the next only after the previous ack. When lat is non-nil (the measured phase) it
// appends each request's latency to it.
func (s *session) produce(conn, batch int, src *source, n int, lat *[]int64, rec *recorder) {
	c := s.clients[conn]
	for n > 0 {
		chunk := src.take(min(n, chunkEvents))
		n -= len(chunk)
		for _, req := range stream.Batches(chunk, batch) {
			t0 := time.Now()
			err := send(c, batch, req)
			t1 := time.Now()
			if lat != nil {
				*lat = append(*lat, int64(t1.Sub(t0)))
				s.acked.Add(int64(len(req)))
			}
			if rec != nil {
				rec.add(spanClientRequest, -1, rec.nextRequest(), t0, t1)
			}
			s.note(err)
		}
	}
}

// produceAll runs every connection's producer concurrently.
func (s *session) produceAll(w *workload, batch int, srcs []*source, n int, lats [][]int64, rec *recorder) {
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat *[]int64
			if lats != nil {
				lat = &lats[c]
			}
			s.produce(c, batch, srcs[c], n, lat, rec)
		}(c)
	}
	wg.Wait()
}

// pacedReads is the open-loop reader: RESULT <name> round-robin on a fixed
// schedule until stop closes. A read is timed from when it was due if the
// previous read was still in flight then — the stall is charged to every
// read it delays — and from when it was sent otherwise, so the harness's
// own timer wake-ups (tens of microseconds late on this box, as much as a
// read takes) are not billed to the server. late is how long after its
// due time each read was sent, whatever the cause.
func (s *session) pacedReads(c *server.Client, names []string, hz int, stop <-chan struct{}) (lat, late []int64) {
	period := time.Second / time.Duration(hz)
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return lat, late
			case <-time.After(d):
			}
		}
		sent := time.Now()
		from := sent
		if prevDone.After(due) {
			from = due
		}
		_, _, err := c.ResultOf(names[i%len(names)])
		prevDone = time.Now()
		s.note(err)
		lat = append(lat, int64(prevDone.Sub(from)))
		late = append(late, int64(sent.Sub(due)))
	}
}

// sampleCPU reads the server's CPU time and the acked-event count every
// cpuSampleEvery until stop closes, and returns CPU seconds per million
// events for each interval in which events were acked.
func (s *session) sampleCPU(stop <-chan struct{}) (samples []float64) {
	tick := time.NewTicker(cpuSampleEvery)
	defer tick.Stop()
	cpu0, ev0 := s.h.cpuSeconds(), s.acked.Load()
	for {
		select {
		case <-stop:
			return samples
		case <-tick.C:
		}
		cpu1, ev1 := s.h.cpuSeconds(), s.acked.Load()
		if ev1 > ev0 {
			samples = append(samples, (cpu1-cpu0)/float64(ev1-ev0)*1e6)
		}
		cpu0, ev0 = cpu1, ev1
	}
}

// repeatTail runs one kind of tail cycle minTailCycles times and then
// until most cycles or tailBudget have been spent.
func repeatTail(most int, cycle func(i int) error) error {
	start := time.Now()
	for i := 0; i < most; i++ {
		if i >= minTailCycles && time.Since(start) > tailBudget {
			break
		}
		if err := cycle(i); err != nil {
			return err
		}
	}
	return nil
}

// fetchAnswers reads every standing query's RESULT over connection 0.
func (s *session) fetchAnswers(w *workload) []answer {
	out := make([]answer, len(w.queries))
	for i := range w.queries {
		cols, rows, err := s.clients[0].ResultOf(w.serverName(i))
		s.note(err)
		if err == nil {
			out[i] = clientAnswer(cols, rows)
		}
	}
	return out
}

// setUp boots a fresh server on an empty WAL directory, registers the
// query set and sends the warm-up prefix. Elapsed time is setup_s.
func setUp(cfg *runConfig, h host, res *e2eResult, walDir string) (*session, []*source, time.Duration, error) {
	w := cfg.w
	t0 := time.Now()
	addr, err := h.start(walDir, false)
	if err != nil {
		return nil, nil, 0, err
	}
	s := &session{h: h, addr: addr, walDir: walDir, res: res}
	if err := s.dial(w.conns); err != nil {
		s.shutdown(true)
		return nil, nil, 0, err
	}
	for i := 1; i < len(w.queries); i++ {
		err := s.clients[0].Register(w.serverName(i), w.queries[i].sql)
		s.note(err)
		if err != nil {
			s.shutdown(true)
			return nil, nil, 0, fmt.Errorf("REGISTER %s: %w", w.queries[i].label, err)
		}
	}
	srcs := make([]*source, w.conns)
	for c := range srcs {
		srcs[c] = w.newSource(cfg.seed, c)
	}
	warm := cfg.warmupPerConn()
	own := min(warm, warmupOwnRequests*w.batch)
	s.produceAll(w, warmupBatch, srcs, warm-own, nil, nil)
	s.produceAll(w, w.batch, srcs, own, nil, nil)
	return s, srcs, time.Since(t0), nil
}

// phaseLogger reports on standard error how long each phase of a run took,
// so a run that outgrows its time budget shows where.
func phaseLogger(workload string) func(string) {
	last := time.Now()
	return func(name string) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "dbtbench: %s: %s in %.2f s\n", workload, name, now.Sub(last).Seconds())
		last = now
	}
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// measuredIngest is the timed phase on a set-up session: the closed-loop
// producers (beside the paced reader when the workload reads during
// ingest, followed by it otherwise), with server CPU and memory sampled
// around it.
func measuredIngest(cfg *runConfig, s *session, srcs []*source, res *e2eResult) error {
	w := cfg.w
	names := w.serverNames()
	reader, err := server.Dial(s.addr)
	if err != nil {
		return err
	}
	// Closed before returning: an in-process server cannot stop while a
	// connection is open.
	defer reader.Close()

	n := cfg.eventsPerConn() - cfg.warmupPerConn()
	lats := make([][]int64, w.conns)
	for c := range lats {
		lats[c] = make([]int64, 0, n/w.batch+1)
	}
	var readLat, readLate []int64
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readLat, readLate = s.pacedReads(reader, names, readHz, stopReader)
	}()
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		res.CPUSPerMevent = s.sampleCPU(stopReader)
	}()
	runtime.GC() // start the timed phase with the set-up garbage gone
	cpu0, self0, t0 := s.h.cpuSeconds(), selfCPUSeconds(), time.Now()
	s.produceAll(w, w.batch, srcs, n, lats, cfg.rec)
	res.IngestWallS = time.Since(t0).Seconds()
	res.ServerCPUS = s.h.cpuSeconds() - cpu0
	res.HarnessCPUS = selfCPUSeconds() - self0
	res.ServerRSSMiB = s.h.peakRSSMiB()
	close(stopReader)
	<-readerDone
	<-samplerDone
	res.ackNs = lats
	for _, lat := range lats {
		res.Requests += len(lat)
	}
	res.Events = n * w.conns
	res.Warmup = cfg.warmupPerConn() * w.conns
	if res.WALBytes, err = dirSize(s.walDir); err != nil {
		return err
	}
	res.readNs = readLat
	res.ReadLateMsP99 = percentile(sortedCopy(nsToFloat(readLate)), 0.99) / 1e6
	lines, err := s.clients[0].Metrics()
	s.note(err)
	res.MetricsLines = lines
	return nil
}

// runEndToEnd performs one full run against hosts made by newHost: the
// repeated set-ups, the measured ingest, the correctness gate and the
// durable tail. A harness failure (cannot spawn, cannot dial) is the
// error; a wrong answer or a failed operation is reported in the result.
func runEndToEnd(cfg *runConfig, newHost func() host) (*e2eResult, error) {
	w := cfg.w
	res := &e2eResult{Correct: true}
	mismatch := func(format string, args ...any) {
		res.Correct = false
		res.Mismatch = append(res.Mismatch, fmt.Sprintf(format, args...))
	}

	phase := phaseLogger(w.name)
	if err := checkReferenceAgainstOracle(w, cfg.seed, min(cfg.oracleEvents, cfg.eventsPerConn())); err != nil {
		return nil, err
	}
	phase("reference checked against the oracle")

	// Set-up, repeated; the last one is kept and measured on.
	var s *session
	var srcs []*source
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(cfg.tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		var d time.Duration
		s, srcs, d, err = setUp(cfg, newHost(), res, dir)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, d.Seconds())
		if i < setupRepeats-1 {
			s.shutdown(true)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer func() { s.shutdown(true) }()
	phase("set-up")
	if err := measuredIngest(cfg, s, srcs, res); err != nil {
		return nil, err
	}
	phase("measured ingest and reads")
	names := w.serverNames()

	// Correctness gate: every query's RESULT equals the reference.
	want, err := referenceAnswers(w, cfg.seed, cfg.eventsPerConn(), cfg.dropRefEvent)
	if err != nil {
		return nil, err
	}
	phase("reference computed")
	got := s.fetchAnswers(w)
	for i, q := range w.queries {
		if !got[i].equal(want[i]) {
			mismatch("%s after ingest: server %v, reference %v", q.label, got[i], want[i])
		}
	}

	// Durable tail, in an order that keeps each cycle's input the ingest
	// log alone: recovery replays a logged REGISTER's catch-up again, so
	// the recover cycles run before the REGISTER cycles, and a checkpoint
	// prunes history, so it comes last.
	err = repeatTail(cfg.maxTailCycles, func(i int) error {
		t0 := time.Now()
		s.shutdown(true)
		var err error
		if s.addr, err = s.h.start(s.walDir, true); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if err := s.dial(w.conns); err != nil {
			return err
		}
		_, _, rerr := s.clients[0].ResultOf(names[0])
		res.RecoverS = append(res.RecoverS, time.Since(t0).Seconds())
		s.note(rerr)
		for q, a := range s.fetchAnswers(w) {
			if !a.equal(got[q]) {
				mismatch("%s after recovery %d: server %v, before the kill %v", w.queries[q].label, i+1, a, got[q])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	phase("recover cycles")
	_ = repeatTail(cfg.maxTailCycles, func(i int) error {
		t0 := time.Now()
		err := s.clients[0].Register(w.tail.label, w.tail.sql)
		res.RegisterMs = append(res.RegisterMs, float64(time.Since(t0))/1e6)
		s.note(err)
		cols, rows, err := s.clients[0].ResultOf(w.tail.label)
		s.note(err)
		if a := clientAnswer(cols, rows); err == nil && !a.equal(want[len(w.queries)]) {
			mismatch("%s after REGISTER catch-up %d: server %v, reference %v", w.tail.label, i+1, a, want[len(w.queries)])
		}
		s.note(s.clients[0].Unregister(w.tail.label))
		return nil
	})
	phase("register cycles")
	// One checkpoint, then a last crash: recovery now restores the snapshot
	// instead of replaying the log, and must give the same answers.
	t0 := time.Now()
	_, _, err = s.clients[0].Checkpoint()
	res.CheckpointMs = float64(time.Since(t0)) / 1e6
	s.note(err)
	s.shutdown(true)
	if s.addr, err = s.h.start(s.walDir, true); err != nil {
		return nil, fmt.Errorf("recover from checkpoint: %w", err)
	}
	if err := s.dial(w.conns); err != nil {
		return nil, err
	}
	for q, a := range s.fetchAnswers(w) {
		if !a.equal(got[q]) {
			mismatch("%s after recovery from the checkpoint: server %v, before the kill %v", w.queries[q].label, a, got[q])
		}
	}
	phase("checkpoint and recovery from it")

	// Orderly end: clients first, then the server, killed if it lingers.
	for _, c := range s.clients {
		s.note(c.Quit())
	}
	s.shutdown(false)
	return res, nil
}

// segmentMeans cuts every connection's requests into the same number of
// consecutive segments and returns each segment's mean request latency in
// nanoseconds, per connection.
func segmentMeans(ackNs [][]int64) [][]float64 {
	k := segments
	for _, lat := range ackNs {
		k = min(k, len(lat))
	}
	means := make([][]float64, len(ackNs))
	for c, lat := range ackNs {
		means[c] = make([]float64, k)
		for i := range means[c] {
			seg := lat[i*len(lat)/k : (i+1)*len(lat)/k]
			var ns int64
			for _, v := range seg {
				ns += v
			}
			means[c][i] = float64(ns) / float64(len(seg))
		}
	}
	return means
}

// segmentRates returns, per segment, the connections' summed event rates.
// A connection's rate is its events over the time it spent inside
// requests: generating the next chunk is the harness's cost, not the
// server's, and is left out of the denominator.
func segmentRates(ackNs [][]int64, batch int) []float64 {
	means := segmentMeans(ackNs)
	rates := make([]float64, len(means[0]))
	for _, conn := range means {
		for i, m := range conn {
			rates[i] += float64(batch) / (m / 1e9)
		}
	}
	return rates
}

// typicalRequestNs is the median over segments of the mean request latency
// (averaged over connections): what a request costs when the box is in its
// usual regime, which a mean over the whole run is not.
func typicalRequestNs(ackNs [][]int64) float64 {
	means := segmentMeans(ackNs)
	perSegment := make([]float64, len(means[0]))
	for _, conn := range means {
		for i, m := range conn {
			perSegment[i] += m / float64(len(means))
		}
	}
	return median(perSegment)
}

func flatten(per [][]int64) (all []int64) {
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// endToEndMetrics derives the BENCHMARK.json end_to_end metrics.
//
// register_ms is the fastest cycle, not the median: a catch-up is the same
// single-threaded work every time, yet on this box a cycle takes either
// about 150 or about 220 ms (fin_b1), and from 1 in 15 to 7 in 9 cycles of
// a run are the slow kind, so the median jumps between the two and the
// minimum does not.
func endToEndMetrics(cfg *runConfig, r *e2eResult) map[string]metric {
	w := cfg.w
	ack := sortedCopy(nsToFloat(flatten(r.ackNs)))
	read := sortedCopy(nsToFloat(r.readNs))
	cpu := median(r.CPUSPerMevent)
	if len(r.CPUSPerMevent) < 3 {
		cpu = r.ServerCPUS / float64(r.Events) * 1e6 // a run too short to sample
	}
	return map[string]metric{
		"setup_s":                 {median(r.SetupS), "s"},
		"events_per_s":            {median(segmentRates(r.ackNs, w.batch)), "events/s"},
		"ack_p50_us":              {percentile(ack, 0.50) / 1e3, "us"},
		"ack_p95_us":              {percentile(ack, 0.95) / 1e3, "us"},
		"server_cpu_s_per_mevent": {cpu, "s/Mevent"},
		"server_rss_mb":           {r.ServerRSSMiB, "MiB"},
		"read_p50_us":             {percentile(read, 0.50) / 1e3, "us"},
		"register_ms":             {slices.Min(r.RegisterMs), "ms"},
		"recover_s":               {median(r.RecoverS), "s"},
		"wal_bytes_per_event":     {float64(r.WALBytes) / float64(r.Events+r.Warmup), "bytes"},
	}
}
