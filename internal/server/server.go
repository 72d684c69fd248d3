// Package server implements DBToaster's standalone mode: a line-oriented
// TCP protocol through which clients register deltas against a compiled
// standing query and read the maintained views (the paper's "standalone
// query processor accepting input over a network interface"). One compiled
// engine serves all connections; events from concurrent clients are
// serialized through one commit lane (see commit.go) whose leader coalesces
// concurrent WAL appends into one write per group while preserving the
// single-stream execution model — engines always apply in WAL sequence
// order.
//
// Protocol (one command per line, '|'-separated values):
//
//	INSERT <relation> v1|v2|...   → OK | ERR <msg>
//	DELETE <relation> v1|v2|...   → OK | ERR <msg>
//	BATCH <n>                     → reads n INSERT/DELETE lines, applies
//	                                them as one batch → OK | ERR <msg>
//	                                (n above 1048576 is refused and the
//	                                connection closed)
//	REGISTER <name> <sql>         → OK (compiles another standing query off
//	                                to the side, catches it up from the
//	                                retained WAL, and swaps it live without
//	                                pausing ingest)
//	UNREGISTER <name>             → OK (removes a standing query; shared
//	                                map ownership is handed off first)
//	LIST                          → OK <n> then one line per query:
//	                                "name state from_seq=N shared=a,b sql"
//	QUERIES                       → OK <n> then one "name sql" line each
//	RESULT [name]                 → OK <n> then n result lines
//	PROGRAM [name]                → OK <n> then the trigger program
//	STATS                         → OK <events> <entries> <n> then n lines
//	                                of per-query detail, map names
//	                                namespaced "query.map"
//	METRICS                       → OK <n> then n "key value..." lines
//	                                (trigger counters/latencies, map
//	                                gauges, dispatch stats; see
//	                                metrics.Snapshot.Lines)
//	METRICS TRACE                 → OK <n> then n structured trace lines
//	                                (drains the sampled trigger-firing
//	                                ring; see metrics.TraceEvent)
//	RESET                         → OK (zeroes metrics counters, e.g.
//	                                between bakeoff phases)
//	CHECKPOINT                    → OK <generation> <watermark> (captures
//	                                all query state durably; requires a
//	                                WAL directory)
//	QUIT                          → OK (closes the connection)
//
// Deltas feed every live query. On a durable server a query registered
// mid-stream is caught up from the retained WAL history before it goes
// live, so its views answer over the same prefix as every other query's;
// without a WAL it starts from the empty database. Registrations and
// unregistrations are themselves WAL records, so the query set survives a
// crash even before the next checkpoint.
//
// String values are whitespace-trimmed like the numeric kinds: the
// protocol's field separators are '|' and newline, so "INSERT R a| x "
// stores "x". Empty fields are valid (empty string).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// Options configures a Server.
type Options struct {
	// Metrics supplies an external sink. Nil means the server creates its
	// own (instrumentation is on by default — the network dwarfs its cost)
	// unless NoMetrics is set.
	Metrics *metrics.Sink
	// NoMetrics disables instrumentation entirely; METRICS returns ERR.
	NoMetrics bool
	// WALDir enables durability: every accepted delta is logged to a
	// write-ahead log in this directory before the engines apply it, and
	// CHECKPOINT captures full state. Empty disables durability.
	WALDir string
	// Recover rebuilds state from WALDir at startup (newest valid
	// checkpoint plus log tail). Without it, a WALDir holding prior state
	// is refused so a misconfigured restart cannot silently shadow it.
	Recover bool
	// WALSync fsyncs the log on every append (default off: the checkpoint
	// cadence bounds loss to the OS page-cache window).
	WALSync bool
	// CheckpointEvery takes an automatic checkpoint after this many
	// accepted events (0 = only explicit CHECKPOINT commands).
	CheckpointEvery uint64
	// Quota bounds each registered query's resources — owned map entries
	// and bytes, and a per-event trigger time budget. A breaching query is
	// quarantined (removed from the fan-out, listed with the reason, and
	// revivable by REGISTER) instead of taking the server down with it.
	// Zero fields disable the corresponding limit.
	Quota engine.Quota
	// MaxConns caps concurrent connections (0 = unlimited). A connection
	// over the cap receives one "ERR too many connections" line and is
	// closed before any command is read.
	MaxConns int
	// IdleTimeout closes a connection whose next command does not arrive
	// within it (0 = never). The final line is "ERR idle timeout ...".
	IdleTimeout time.Duration
	// MaxPending bounds the commit lane's admission backlog in events
	// (0 = unbounded). Requests past the budget are shed with an
	// OverloadedError carrying a retry hint instead of queueing without
	// bound; see commit.go.
	MaxPending int

	// engineBuilder overrides engine construction for registered queries:
	// the seam tests use to inject fault-raising engines. Nil selects the
	// built-in Toaster. Builder engines
	// install as-is: no map sharing or rebuild-with-transfer.
	engineBuilder func(name string, q *engine.Query) (engine.CompiledEngine, error)
}

// Server is a standalone standing-query processor hosting a dynamic set of
// compiled queries over a shared catalog.
type Server struct {
	mu     sync.Mutex
	cat    *schema.Catalog
	sink   *metrics.Sink
	reg    *engine.Registry
	events uint64
	ln     net.Listener
	wg     sync.WaitGroup

	// ingest orders WAL appends against engine application and
	// checkpoints: the commit lane's leader holds it across append→apply,
	// and Checkpoint acquires it (before mu — that order everywhere) so a
	// checkpoint watermark can never cover unapplied events. com is the
	// commit lane all ingest flows through; see commit.go.
	ingest sync.Mutex
	com    committer

	// Overload protection (see commit.go for shedding, Listen/serve for
	// the connection-level guards).
	maxPending    int
	maxConns      int
	idleTimeout   time.Duration
	conns         atomic.Int64
	emaGroupNs    atomic.Int64
	engineBuilder func(name string, q *engine.Query) (engine.CompiledEngine, error)
	// recovering suppresses quarantine WAL appends while replay itself
	// rediscovers (or re-applies) demotions.
	recovering bool

	// Durability state (nil/zero when WALDir is unset).
	wal        *wal.Manager
	ckptEvery  uint64
	sinceCkpt  uint64
	recovery   *wal.RecoveryInfo
	replayErrs uint64
	// catchupBytes is what the nested catch-ups of recovered REGISTER
	// records read, beside the recovery scan's own RecoveryInfo.BytesRead.
	catchupBytes uint64
}

// New compiles the initial query (registered as "main") for serving.
func New(sqlText string, cat *schema.Catalog) (*Server, error) {
	return NewWithOptions(sqlText, cat, Options{})
}

// NewWithOptions compiles the initial query (registered as "main") with
// full configuration.
func NewWithOptions(sqlText string, cat *schema.Catalog, opts Options) (*Server, error) {
	// Sessions and the log reader stamp events with catalog ordinals that
	// every engine's dispatch table is laid out over: the served catalog
	// gains no relations from here on.
	cat.Seal()
	s := &Server{
		cat: cat, reg: engine.NewRegistry(true),
		maxPending: opts.MaxPending, maxConns: opts.MaxConns,
		idleTimeout: opts.IdleTimeout, engineBuilder: opts.engineBuilder,
	}
	if !opts.NoMetrics {
		s.sink = opts.Metrics
		if s.sink == nil {
			s.sink = metrics.New()
		}
	}
	s.reg.SetQuota(opts.Quota)
	s.reg.SetQuarantineHook(s.onQuarantine)
	// "main" is installed before the WAL opens: with recovery it then
	// replays the full retained history like every checkpointed query.
	if err := s.Register("main", sqlText); err != nil {
		return nil, err
	}
	if opts.WALDir != "" {
		wopts := wal.Options{Sync: opts.WALSync}
		if s.sink != nil {
			wopts.Stats = s.sink.WAL()
			s.com.stats = wopts.Stats
		}
		m, err := wal.Open(opts.WALDir, wopts)
		if err != nil {
			return nil, err
		}
		s.wal = m
		s.ckptEvery = opts.CheckpointEvery
		if !m.Empty() && !opts.Recover {
			m.Close()
			return nil, fmt.Errorf("server: WAL directory %s holds prior state; start with recovery enabled or point at an empty directory", opts.WALDir)
		}
		if opts.Recover {
			// Replay rediscovers deterministic quarantines (size quotas) and
			// applies the durable ones (RecQuarantine records); wall-clock
			// budget enforcement is off — replay timing proves nothing about
			// live timing — and the hook must not append records the log
			// already holds.
			s.recovering = true
			s.reg.SetBudgetEnforcement(false)
			info, err := s.runRecovery()
			s.reg.SetBudgetEnforcement(true)
			s.recovering = false
			if err != nil {
				m.Close()
				return nil, fmt.Errorf("server: recovery: %w", err)
			}
			s.recovery = &info
			slog.Info("recovered", "checkpoint_gen", info.CheckpointGen, "watermark", info.Watermark,
				"records", info.Replayed, "bytes", info.BytesRead, "catchup_bytes", s.catchupBytes,
				"rejected", s.replayErrs, "seconds", info.Elapsed.Seconds())
		}
	}
	return s, nil
}

// onQuarantine is the registry's durability hook for fan-out demotions. It
// runs under the registry lock inside the commit lane's append→apply
// critical section, so the RecQuarantine record lands at the exact ingest
// position where the breach was detected; recovery replays it there.
// Returns the query's last-good WAL sequence (the record just applied — the
// breach was detected after the event committed).
func (s *Server) onQuarantine(name, reason string) uint64 {
	var lastGood uint64
	if s.wal != nil {
		lastGood = s.wal.LastSeq()
		if !s.recovering {
			// An append failure leaves the demotion memory-only; a restart
			// rediscovers deterministic breaches by replay.
			_, _ = s.wal.Append(wal.AppendQuarantine(nil, name, reason, lastGood))
		}
	}
	if s.sink != nil {
		s.sink.Robust().Quarantines.Inc()
	}
	return lastGood
}

// buildEngine constructs the private (catch-up) engine for one query per
// the server's configuration: the test-injected engineBuilder when set,
// otherwise a bare Toaster, which Install rebuilds with metrics and map
// sharing.
func (s *Server) buildEngine(name string, q *engine.Query) (engine.CompiledEngine, error) {
	if s.engineBuilder != nil {
		return s.engineBuilder(name, q)
	}
	return engine.NewToaster(q, runtime.Options{NoMetrics: true})
}

// Sink returns the server's metrics sink (nil when disabled); the daemon
// hands it to metrics.Serve for the HTTP endpoint.
func (s *Server) Sink() *metrics.Sink { return s.sink }

// Register compiles and installs another standing query without pausing
// ingest. On a durable server the new engine is caught up from the
// retained WAL history off to the side, then — at a control point in the
// ingest order — drained of the final few records, logged as a REGISTER
// WAL record, and atomically swapped into the event fan-out; its views
// then answer over the same event prefix as every other query's. Without
// a WAL the view starts from the empty database.
func (s *Server) Register(name, sqlText string) error {
	if name == "" || strings.ContainsAny(name, " \t|") {
		return fmt.Errorf("invalid query name %q", name)
	}
	if err := s.reg.Begin(name, sqlText); err != nil {
		return err
	}
	if err := s.install(name, sqlText); err != nil {
		s.reg.Abort(name)
		return err
	}
	return nil
}

// install runs the compile → catch-up → swap pipeline for one reserved
// registration.
func (s *Server) install(name, sqlText string) error {
	start := time.Now()
	q, err := engine.Prepare(sqlText, s.cat)
	if err != nil {
		return err
	}
	ropts := runtime.Options{Metrics: s.sink, MetricsLabel: name}
	tmp, err := s.buildEngine(name, q)
	if err != nil {
		return err
	}
	if s.sink != nil {
		s.sink.Query(name).CompileNs.Set(int64(time.Since(start)))
	}

	// "main" is installed before the WAL opens, so an install that finds a
	// WAL is serving: it registers against live ingest and catches up.
	serving := s.wal != nil
	var cu *catchUp
	if serving {
		// Catch up outside the ingest path: replay the retained history
		// into the private engine while the commit lane keeps accepting
		// deltas. The pin holds checkpoint pruning off so no segment
		// disappears mid-read.
		release := s.wal.Pin()
		defer release()
		s.reg.SetState(name, engine.StateCatchingUp)
		cu = s.newCatchUp(name, tmp, 0)
		// Advance the cursor until a pass nets little: each pass reads only
		// what arrived during the previous one, so the net shrinks
		// geometrically unless ingest outruns replay. Hand off to the
		// control lane once a pass nets only a group-commit's worth (or
		// after a pass cap, so a saturating producer cannot livelock the
		// registration) — the final drain's cost, and thus the ingest stall,
		// stays bounded either way.
		const drainThreshold = 512
		for cu.passes < 32 {
			netted, rerr := cu.advance(s.wal, 0)
			if rerr != nil {
				return rerr
			}
			if netted <= drainThreshold {
				break
			}
		}
	}

	var fromSeq, drainBytes uint64
	var drain time.Duration
	err = s.control(func() error {
		if serving {
			// Final drain: the log is static under the control lane, so one
			// more advance closes the gap between catch-up and the swap. It
			// reads from the cursor, not from the start of the log: what
			// arrived since the last pass — normally under one group-commit
			// window, nothing at all on an idle server.
			t0, read := time.Now(), cu.bytes
			if _, rerr := cu.advance(s.wal, 0); rerr != nil {
				return rerr
			}
			drain, drainBytes = time.Since(t0), cu.bytes-read
			if cu.first != 0 {
				fromSeq = cu.first - 1
			} else {
				fromSeq = s.wal.LastSeq()
			}
			if _, werr := s.wal.Append(wal.AppendRegister(nil, name, normalSQL(sqlText), fromSeq)); werr != nil {
				return fmt.Errorf("wal append register: %w", werr)
			}
		} else {
			// Construction-time or non-durable: the query's origin is the
			// current event count (recovery replay feeds boot-installed
			// queries the whole log, matching origin zero).
			fromSeq = s.events
		}
		_, ierr := s.reg.Install(name, q, tmp, fromSeq, ropts)
		return ierr
	})
	if err != nil {
		return err
	}
	if serving {
		slog.Info("registration caught up", "query", name, "from_seq", fromSeq,
			"records", cu.records, "bytes", cu.bytes, "passes", cu.passes, "rejected", cu.rejected,
			"seconds", time.Since(start).Seconds(),
			"drain_ms", float64(drain)/float64(time.Millisecond), "drain_bytes", drainBytes)
	}
	return nil
}

// Unregister removes a standing query at a control point in the ingest
// order: its engine stops receiving events, ownership of any maps it
// shares is promoted to their oldest borrower, and — on a durable server —
// an UNREGISTER record makes the removal survive recovery. Removing the
// last live query is refused.
func (s *Server) Unregister(name string) error {
	return s.control(func() error {
		if err := s.reg.Remove(name); err != nil {
			return err
		}
		if s.wal != nil {
			if _, werr := s.wal.Append(wal.AppendUnregister(nil, name)); werr != nil {
				return fmt.Errorf("wal append unregister: %w", werr)
			}
		}
		if s.sink != nil {
			s.sink.DropLabel(name)
		}
		return nil
	})
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if s.maxConns > 0 && s.conns.Add(1) > int64(s.maxConns) {
				s.conns.Add(-1)
				if s.sink != nil {
					s.sink.Robust().ConnRejects.Inc()
				}
				fmt.Fprintf(conn, "ERR too many connections (limit %d)\n", s.maxConns)
				conn.Close()
				continue
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if s.maxConns > 0 {
					defer s.conns.Add(-1)
				}
				s.serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener, waits for connections to drain (the commit
// lane has no goroutine to stop), and closes the WAL.
func (s *Server) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	ss := newSession(s)
	for {
		// The read deadline re-arms per command and spans the whole
		// command, including a BATCH body: a client that stalls mid-batch
		// holds server resources just like an idle one.
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		if !sc.Scan() {
			break
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		quit := ss.handleSafe(sc, w, line)
		w.Flush()
		if quit {
			return
		}
	}
	// A scan that stopped on anything but EOF owes the client a final
	// explanation: a silently dropped oversized line (bufio.ErrTooLong past
	// the 1 MiB token limit) or an expired idle deadline would otherwise be
	// indistinguishable from a server crash.
	if err := sc.Err(); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if s.sink != nil {
				s.sink.Robust().IdleCloses.Inc()
			}
			fmt.Fprintf(w, "ERR idle timeout after %s, closing\n", s.idleTimeout)
		} else {
			fmt.Fprintf(w, "ERR read: %v\n", err)
		}
	}
}

// session is one connection's ingest state. Everything a delta request
// needs besides its values is allocated once per connection and reused:
// the parser (with the last relation it resolved), the events slice, the
// WAL encode buffer and the commit request with its reply channel.
type session struct {
	srv    *Server
	parser deltaParser
	evs    []stream.Event
	req    commitReq
}

// maxSessionEvents is how many events' worth of buffers a request is given
// up front and a connection keeps afterwards: a request's first value slab
// is sized for at most this many events, and the events slice and encode
// buffer of a larger batch are dropped with the request instead of pinned
// for the connection's life. maxSessionValues bounds the value slab kept
// the same way, in values (40 bytes each).
const (
	maxSessionEvents = 4096
	maxSessionValues = 4 * maxSessionEvents
)

func newSession(s *Server) *session {
	ss := &session{srv: s, parser: deltaParser{cat: s.cat}}
	ss.req.done = make(chan error, 1)
	return ss
}

// handleSafe runs one command, converting a handler panic into an ERR
// reply: one poisoned command must not take down the process (or the
// connection) while other clients stream deltas. Handlers hold the server
// lock only through defer-unlocked helpers, so the server stays usable
// after the recover.
func (ss *session) handleSafe(sc *bufio.Scanner, w *bufio.Writer, line []byte) (quit bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(w, "ERR internal error: %v\n", r)
			quit = false
		}
	}()
	return ss.handle(sc, w, line)
}

// handle dispatches one command line (trimmed, still in the scanner's
// buffer). The delta commands are parsed in place; everything else goes
// through the string-based command table.
func (ss *session) handle(sc *bufio.Scanner, w *bufio.Writer, line []byte) (quit bool) {
	cmd, rest, _ := bytes.Cut(line, space)
	op, isDelta := deltaOp(cmd)
	switch {
	case isDelta:
		ss.begin()
		ev, err := ss.parser.parse(op, rest, 1)
		if err == nil {
			err = ss.commit(append(ss.evs, ev))
		}
		return replyAck(w, err)
	case bytes.EqualFold(cmd, []byte("BATCH")):
		return ss.handleBatch(sc, w, rest)
	}
	return ss.srv.handle(w, string(line))
}

// begin starts a new delta request: the connection's value slab and
// events slice rewound (see deltaParser.parse), each dropped instead if a
// large batch grew it past its bound.
func (ss *session) begin() {
	if cap(ss.parser.slab) > maxSessionValues {
		ss.parser.slab = nil
	}
	if cap(ss.evs) > maxSessionEvents {
		ss.evs, ss.req.enc = nil, nil
	}
	ss.parser.slab = ss.parser.slab[:0]
	ss.evs = ss.evs[:0]
}

// replyAck writes a delta request's one-line reply.
func replyAck(w *bufio.Writer, err error) (quit bool) {
	if err != nil {
		fmt.Fprintf(w, "ERR %s\n", err)
	} else {
		w.WriteString("OK\n")
	}
	return false
}

// handleBatch reads the n delta lines of "BATCH <n>" and commits them as
// one request.
func (ss *session) handleBatch(sc *bufio.Scanner, w *bufio.Writer, arg []byte) (quit bool) {
	n, err := strconv.Atoi(string(bytes.TrimSpace(arg)))
	if err != nil || n < 0 {
		w.WriteString("ERR usage: BATCH <n>\n")
		return false
	}
	if n > maxBatch {
		// The body cannot be skipped without reading it; give up on the
		// connection rather than buffer or scan an unbounded request.
		fmt.Fprintf(w, "ERR batch too large (max %d)\n", maxBatch)
		return true
	}
	ss.begin()
	evs := ss.evs
	var parseErr error
	for i := 0; i < n; i++ {
		// Consume all n delta lines even after a parse error, so the
		// protocol stays in sync.
		if !sc.Scan() {
			w.WriteString("ERR truncated batch\n")
			return true
		}
		if parseErr != nil {
			continue
		}
		cmd, rest, _ := bytes.Cut(bytes.TrimSpace(sc.Bytes()), space)
		op, ok := deltaOp(cmd)
		if !ok {
			parseErr = fmt.Errorf("batch line %d: expected INSERT or DELETE, got %q", i+1, cmd)
			continue
		}
		ev, err := ss.parser.parse(op, rest, n-i)
		if err != nil {
			parseErr = fmt.Errorf("batch line %d: %w", i+1, err)
			continue
		}
		evs = append(evs, ev)
	}
	if parseErr == nil {
		parseErr = ss.commit(evs)
	}
	return replyAck(w, parseErr)
}

// resultOf assembles a query's current answer ("" = the oldest registered)
// under the server lock — single-threaded engines must not be read while
// a commit group applies events.
func (s *Server) resultOf(name string) (*engine.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		name = s.reg.First()
	}
	eng, ok := s.reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown query %q", name)
	}
	res, err := eng.Results()
	if err != nil {
		return nil, err
	}
	res.Query = name
	return res, nil
}

// listQueries renders the QUERIES body (live queries only; LIST shows the
// full lifecycle).
func (s *Server) listQueries() []string {
	var out []string
	for _, info := range s.reg.Infos() {
		if info.State == engine.StateLive {
			out = append(out, fmt.Sprintf("%s %s", info.Name, normalSQL(info.SQL)))
		}
	}
	return out
}

// listLines renders the LIST body: every registry entry, including
// registrations still compiling or catching up.
func (s *Server) listLines() []string {
	var out []string
	for _, info := range s.reg.Infos() {
		shared := "-"
		if len(info.Shared) > 0 {
			shared = strings.Join(info.Shared, ",")
		}
		if info.State == engine.StateQuarantined {
			out = append(out, fmt.Sprintf("%s %s from_seq=%d shared=%s reason=%q last_good_seq=%d %s",
				info.Name, info.State, info.FromSeq, shared, info.Reason, info.LastGood, normalSQL(info.SQL)))
			continue
		}
		out = append(out, fmt.Sprintf("%s %s from_seq=%d shared=%s %s",
			info.Name, info.State, info.FromSeq, shared, normalSQL(info.SQL)))
	}
	return out
}

// statsBody reports (events, total map entries) plus per-query detail
// lines with map names namespaced "query.map", under the server lock.
func (s *Server) statsBody() (events uint64, entries int, lines []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range s.reg.Names() {
		eng, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		n := eng.MemEntries()
		entries += n
		lines = append(lines, fmt.Sprintf("query %s entries=%d", name, n))
		if ms, ok := eng.(interface{ MapStats() []runtime.MemStats }); ok {
			for _, m := range ms.MapStats() {
				lines = append(lines, fmt.Sprintf("map %s.%s entries=%d layout=%s shared=%t",
					name, m.Name, m.Entries, m.Layout, m.Shared))
			}
		}
	}
	for _, info := range s.reg.Infos() {
		if info.State == engine.StateQuarantined {
			lines = append(lines, fmt.Sprintf("query %s quarantined reason=%q last_good_seq=%d",
				info.Name, info.Reason, info.LastGood))
		}
	}
	return s.events, entries, lines
}

// handle runs one non-delta command.
func (s *Server) handle(w *bufio.Writer, line string) (quit bool) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "REGISTER":
		name, sqlText, ok := strings.Cut(rest, " ")
		if !ok || strings.TrimSpace(sqlText) == "" {
			fmt.Fprintln(w, "ERR usage: REGISTER <name> <sql>")
			return false
		}
		if err := s.Register(name, sqlText); err != nil {
			fmt.Fprintf(w, "ERR %s\n", err)
			return false
		}
		fmt.Fprintln(w, "OK")
	case "UNREGISTER":
		name := strings.TrimSpace(rest)
		if name == "" {
			fmt.Fprintln(w, "ERR usage: UNREGISTER <name>")
			return false
		}
		if err := s.Unregister(name); err != nil {
			fmt.Fprintf(w, "ERR %s\n", err)
			return false
		}
		fmt.Fprintln(w, "OK")
	case "LIST":
		lines := s.listLines()
		fmt.Fprintf(w, "OK %d\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "QUERIES":
		lines := s.listQueries()
		fmt.Fprintf(w, "OK %d\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "RESULT":
		res, err := s.resultOf(strings.TrimSpace(rest))
		if err != nil {
			fmt.Fprintf(w, "ERR %s\n", err)
			return false
		}
		fmt.Fprintf(w, "OK %d\n", len(res.Rows)+1)
		fmt.Fprintln(w, strings.Join(res.Columns, "|"))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(parts, "|"))
		}
	case "PROGRAM":
		name := strings.TrimSpace(rest)
		if name == "" {
			name = s.reg.First()
		}
		eng, ok := s.reg.Get(name)
		if !ok {
			fmt.Fprintf(w, "ERR unknown query %q\n", name)
			return false
		}
		prog := eng.Compiled().Program.String()
		lines := strings.Split(strings.TrimRight(prog, "\n"), "\n")
		fmt.Fprintf(w, "OK %d\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "STATS":
		events, entries, lines := s.statsBody()
		fmt.Fprintf(w, "OK %d %d %d\n", events, entries, len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "METRICS":
		if s.sink == nil {
			fmt.Fprintln(w, "ERR metrics disabled")
			return false
		}
		if strings.EqualFold(strings.TrimSpace(rest), "TRACE") {
			evs := s.sink.Trace()
			fmt.Fprintf(w, "OK %d\n", len(evs))
			for _, t := range evs {
				fmt.Fprintf(w, "trace seq=%d query=%s relation=%s op=%s latency_ns=%d unix_nano=%d\n",
					t.Seq, t.Label, t.Relation, t.Op, t.LatencyNs, t.UnixNano)
			}
			return false
		}
		lines := s.sink.Snapshot().Lines()
		fmt.Fprintf(w, "OK %d\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "RESET":
		if s.sink == nil {
			fmt.Fprintln(w, "ERR metrics disabled")
			return false
		}
		s.sink.Reset()
		fmt.Fprintln(w, "OK")
	case "CHECKPOINT":
		gen, wm, err := s.Checkpoint()
		if err != nil {
			fmt.Fprintf(w, "ERR %s\n", err)
			return false
		}
		fmt.Fprintf(w, "OK %d %d\n", gen, wm)
	case "QUIT":
		fmt.Fprintln(w, "OK")
		return true
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

// Client is a minimal protocol client for tests, tools, and examples. It is
// not safe for concurrent use: every request is rendered into one reused
// buffer and sent with a single Write.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	buf  []byte
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &Client{conn: conn, r: sc}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// send writes the rendered request and reads the reply's first line, which
// stays in the scanner's buffer until the next read.
func (c *Client) send() (head []byte, err error) {
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	if !c.r.Scan() {
		return nil, fmt.Errorf("server closed connection")
	}
	head = c.r.Bytes()
	if bytes.HasPrefix(head, []byte("ERR")) {
		return nil, fmt.Errorf("%s", strings.TrimPrefix(string(head), "ERR "))
	}
	return head, nil
}

func (c *Client) roundTrip(line string) (string, []string, error) {
	c.buf = append(append(c.buf[:0], line...), '\n')
	h, err := c.send()
	if err != nil {
		return "", nil, err
	}
	head := string(h)
	var body []string
	if n, ok := bodyCount(line, head); ok {
		for i := 0; i < n; i++ {
			if !c.r.Scan() {
				return "", nil, fmt.Errorf("truncated response")
			}
			body = append(body, c.r.Text())
		}
	}
	return head, body, nil
}

// bodyCount reports how many body lines follow head for the given command:
// the first "OK" field for the list-shaped commands, the last for STATS
// (whose head is "OK <events> <entries> <n>"). Commands not listed here
// have single-line replies; missing one desynchronizes the protocol.
func bodyCount(line, head string) (int, bool) {
	cmd, _, _ := strings.Cut(strings.ToUpper(strings.TrimSpace(line)), " ")
	fields := strings.Fields(head)
	if len(fields) < 2 || fields[0] != "OK" {
		return 0, false
	}
	var cnt string
	switch cmd {
	case "RESULT", "PROGRAM", "QUERIES", "METRICS", "LIST":
		cnt = fields[1]
	case "STATS":
		cnt = fields[len(fields)-1]
	default:
		return 0, false
	}
	n, err := strconv.Atoi(cnt)
	return n, err == nil
}

// Insert sends an insert; values are rendered per Value.String.
func (c *Client) Insert(rel string, vals ...types.Value) error {
	c.buf = appendDelta(c.buf[:0], stream.Insert, rel, vals)
	_, err := c.send()
	return err
}

// Delete sends a delete.
func (c *Client) Delete(rel string, vals ...types.Value) error {
	c.buf = appendDelta(c.buf[:0], stream.Delete, rel, vals)
	_, err := c.send()
	return err
}

// Batch sends a batch of deltas through the BATCH command: one round trip
// and one server-side lock acquisition for the whole batch.
func (c *Client) Batch(evs []stream.Event) error {
	c.buf = append(strconv.AppendInt(append(c.buf[:0], "BATCH "...), int64(len(evs)), 10), '\n')
	for i := range evs {
		c.buf = appendDelta(c.buf, evs[i].Op, evs[i].Relation, evs[i].Args)
	}
	_, err := c.send()
	return err
}

// Register compiles another standing query on the server.
func (c *Client) Register(name, sql string) error {
	_, _, err := c.roundTrip(fmt.Sprintf("REGISTER %s %s", name, strings.Join(strings.Fields(sql), " ")))
	return err
}

// Unregister removes a standing query from the server.
func (c *Client) Unregister(name string) error {
	_, _, err := c.roundTrip("UNREGISTER " + name)
	return err
}

// Queries lists registered queries as "name sql" lines.
func (c *Client) Queries() ([]string, error) {
	_, body, err := c.roundTrip("QUERIES")
	return body, err
}

// List fetches the full query lifecycle listing, one line per entry:
// "name state from_seq=N shared=a,b sql".
func (c *Client) List() ([]string, error) {
	_, body, err := c.roundTrip("LIST")
	return body, err
}

// Trace drains the server's structured trace ring as raw "trace key=value"
// lines (one sampled trigger firing each).
func (c *Client) Trace() ([]string, error) {
	_, body, err := c.roundTrip("METRICS TRACE")
	return body, err
}

// Result fetches the first registered query's current answer.
func (c *Client) Result() (columns []string, rows [][]string, err error) {
	return c.ResultOf("")
}

// ResultOf fetches a named query's current answer as header + rows of
// '|'-joined text.
func (c *Client) ResultOf(name string) (columns []string, rows [][]string, err error) {
	cmd := "RESULT"
	if name != "" {
		cmd += " " + name
	}
	_, body, err := c.roundTrip(cmd)
	if err != nil {
		return nil, nil, err
	}
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty result")
	}
	columns = strings.Split(body[0], "|")
	for _, l := range body[1:] {
		rows = append(rows, strings.Split(l, "|"))
	}
	return columns, rows, nil
}

// Stats fetches (events processed, map entries). The per-query detail
// body is drained and discarded; use StatsDetail to keep it.
func (c *Client) Stats() (events, entries int, err error) {
	events, entries, _, err = c.StatsDetail()
	return events, entries, err
}

// StatsDetail fetches the totals plus the per-query detail lines ("query
// <name> entries=N" and "map <query>.<map> entries=N layout=L shared=B").
func (c *Client) StatsDetail() (events, entries int, lines []string, err error) {
	head, body, err := c.roundTrip("STATS")
	if err != nil {
		return 0, 0, nil, err
	}
	if _, err = fmt.Sscanf(head, "OK %d %d", &events, &entries); err != nil {
		return 0, 0, nil, err
	}
	return events, entries, body, nil
}

// Metrics fetches the METRICS snapshot as raw "key value..." lines.
func (c *Client) Metrics() ([]string, error) {
	_, body, err := c.roundTrip("METRICS")
	return body, err
}

// Reset zeroes the server's metrics counters.
func (c *Client) Reset() error {
	_, _, err := c.roundTrip("RESET")
	return err
}

// Checkpoint captures all query state durably, returning the checkpoint
// generation and WAL watermark.
func (c *Client) Checkpoint() (gen, watermark uint64, err error) {
	head, _, err := c.roundTrip("CHECKPOINT")
	if err != nil {
		return 0, 0, err
	}
	_, err = fmt.Sscanf(head, "OK %d %d", &gen, &watermark)
	return gen, watermark, err
}

// Program fetches the compiled trigger program text.
func (c *Client) Program() (string, error) {
	_, body, err := c.roundTrip("PROGRAM")
	if err != nil {
		return "", err
	}
	return strings.Join(body, "\n"), nil
}

// Quit sends QUIT.
func (c *Client) Quit() error {
	_, _, err := c.roundTrip("QUIT")
	return err
}
