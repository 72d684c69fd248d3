package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dbtoaster/internal/metrics"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/wal"
)

// Leader commit. Every accepted delta — INSERT, DELETE, or BATCH, from any
// connection — and every control operation goes through one commit lane
// that has no goroutine of its own: the producer that finds it idle leads,
// on its own goroutine. A leader swaps out the queue once — its request
// plus whatever queued behind the previous leader — and commits it as one
// group (one WAL write, one fsync with -wal-sync); each producer is acked
// once its events are durable and applied. Producers that arrive while a
// leader is busy queue behind it; when done, the leader hands leadership to
// the first of them (one wake, only under contention) or marks the lane
// idle, and returns to its own client. An uncontended request crosses no
// goroutine boundary between socket read and ack write.
//
// Ordering: one leader at a time appends and applies in arrival order, so
// WAL sequence numbers match apply order and recovery replays the exact
// live history. s.ingest spans append→apply and is shared with Checkpoint,
// so a checkpoint never captures a watermark covering unapplied events.
//
// Yield: a leader never parks — its client's next request is usually
// buffered already — so a RESULT/STATS reader waiting on the server lock
// would keep losing it to the next swap. After a swap that held the lane
// past yieldAfter the leader yields its processor once, before it hands
// leadership on, so the woken reader runs ahead of the next leader.
//
// Panics: a group or control op that panics unlocks through defer and
// answers each of its requests with an internal error; the rest of the
// swap commits and leadership passes on, so the lane cannot wedge. The
// group's events may already be logged: the panic is a bug, and the
// process keeps serving, as handleSafe does for any command.

// commitReq is one producer's pending contribution to a commit group, or —
// when ctrl is set — a control operation (query registration swap,
// unregistration, recovery-sensitive maintenance) that must execute at a
// definite point in the ingest order: every event committed before it is
// applied first, every event after it waits. Control operations run under
// both the ingest and server locks, so they observe a quiescent engine set
// and may replace it.
type commitReq struct {
	// evs are admitted against the server's catalog by the session's parser.
	evs []stream.Event
	// enc is evs as log records (wal.AppendEventRecord), encoded by the
	// producer before it queued the request; empty without a WAL.
	enc  []byte
	ctrl func() error
	err  error // per-request apply verdict, set and cleared by the leader
	// done carries the request's verdict, or errLead when leadership passes
	// to it; 1-buffered, so a session reuses one request (and channel) for
	// every delta command it serves.
	done chan error
}

// errLead, sent on a queued request's done channel, makes its producer the
// next leader; it never reaches a client.
var errLead = errors.New("lead the commit lane")

const yieldAfter = 50 * time.Microsecond // see "Yield" above

// committer is the commit lane's state; the zero value is an idle lane.
type committer struct {
	mu      sync.Mutex
	pending []*commitReq
	// pendingEvents counts the events (not requests) queued for the next
	// swap — the admission-control gauge MaxPending compares against.
	pendingEvents int
	leading       bool // a producer is committing; the queue waits for it
	// Owned by the leader: the emptied request list that becomes pending at
	// the next swap, and the per-group list of encode buffers.
	spare []*commitReq
	encs  [][]byte
	stats *metrics.WALStats // nil without a WAL or metrics
}

// OverloadedError reports a shed request: admission control refused it
// because the commit lane's pending backlog was over the configured budget.
// RetryAfter is a pacing hint — the EMA of recent swap durations, roughly
// one drain cycle.
type OverloadedError struct {
	PendingEvents int
	Limit         int
	RetryAfter    time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: %d events pending (limit %d), retry_after_ms=%d",
		e.PendingEvents, e.Limit, e.RetryAfter.Milliseconds())
}

// commit queues the session's request — evs, parsed and admitted into the
// request's slab — on the commit lane and returns once the group containing
// it is durable and applied. This is the only ingest path. The log records are encoded
// here, on the connection's goroutine while the values are still in cache,
// into the session's own buffer: connections encode in parallel, and the
// leader's serial section is left with numbering, checksumming and writing
// them.
//
// Admission control: with MaxPending set, a request that would push the
// queued backlog past the budget is shed with an OverloadedError instead
// of enqueued — the producer gets a structured rejection and a retry hint
// while the leader drains. A shed request is never queued, so it never
// leads. A request arriving at an empty backlog is always admitted, even if
// it alone exceeds the budget: rejecting it could never succeed on retry.
func (ss *session) commit(evs []stream.Event) error {
	ss.evs = evs // keep the grown slice for the next request
	if len(evs) == 0 {
		return nil
	}
	s, req := ss.srv, &ss.req
	req.evs, req.enc = evs, req.enc[:0]
	if s.wal != nil {
		for i := range evs {
			ev := &evs[i]
			req.enc = wal.AppendEventRecord(req.enc, ev.Relation, ev.Op == stream.Insert, ev.Args)
		}
	}
	c := &s.com
	c.mu.Lock()
	if s.maxPending > 0 && c.pendingEvents > 0 && c.pendingEvents+len(evs) > s.maxPending {
		pending := c.pendingEvents
		c.mu.Unlock()
		if s.sink != nil {
			rs := s.sink.Robust()
			rs.ShedRequests.Inc()
			rs.ShedEvents.Add(uint64(len(evs)))
		}
		return &OverloadedError{PendingEvents: pending, Limit: s.maxPending, RetryAfter: s.retryAfter()}
	}
	c.pendingEvents += len(evs)
	return s.submit(req)
}

// control runs op at a definite point in the ingest order (see commitReq).
// Construction uses it too, to install "main": it finds the lane idle and
// leads.
func (s *Server) control(op func() error) error {
	s.com.mu.Lock()
	return s.submit(&commitReq{ctrl: op, done: make(chan error, 1)})
}

// submit queues req (s.com.mu held on entry) and returns its verdict. If a
// leader is active, the producer waits for its verdict or for leadership;
// leading is one swap, then leadership passes on or the lane goes idle.
func (s *Server) submit(req *commitReq) error {
	c := &s.com
	c.pending = append(c.pending, req)
	if c.leading {
		c.mu.Unlock()
		if err := <-req.done; err != errLead {
			return err
		}
		c.mu.Lock()
	}
	c.leading = true
	all := c.pending
	c.pending, c.pendingEvents = c.spare, 0
	c.mu.Unlock()

	start := time.Now()
	s.commitSwap(all)
	held := time.Since(start)
	s.noteGroupDuration(held)
	// The two request lists alternate, so steady-state grouping allocates
	// nothing; cleared, so an answered request is not kept reachable.
	clear(all)

	c.mu.Lock()
	c.spare = all[:0]
	var next *commitReq
	if len(c.pending) > 0 {
		next = c.pending[0]
	} else {
		c.leading = false
	}
	c.mu.Unlock()
	if held > yieldAfter {
		runtime.Gosched()
		if c.stats != nil {
			c.stats.LeaderYields.Inc()
		}
	}
	if next != nil {
		next.done <- errLead
		if c.stats != nil {
			c.stats.LeaderHandoffs.Inc()
		}
	}
	return <-req.done
}

// commitSwap commits one swapped-out queue. Control operations split it:
// events before a control op commit as their own group first, then the op
// runs alone, then the remainder — arrival order is the ingest order either
// side of the op.
func (s *Server) commitSwap(all []*commitReq) {
	for len(all) > 0 {
		if all[0].ctrl != nil {
			s.runCtrl(all[0])
			all = all[1:]
			continue
		}
		cut := 1
		for cut < len(all) && all[cut].ctrl == nil {
			cut++
		}
		s.commitGroup(all[:cut])
		all = all[cut:]
	}
}

// runCtrl executes one control operation under the same lock order as a
// commit group (ingest, then the server lock), so it observes every prior
// event applied and no later event started.
func (s *Server) runCtrl(req *commitReq) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
		req.done <- err
	}()
	s.ingest.Lock()
	defer s.ingest.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	err = req.ctrl()
}

// commitGroup makes one group durable and applies it: a single WAL batch
// append covering every request's events in arrival order (write-ahead for
// the whole group — a WAL failure fails every producer before any engine
// sees an event), then per-request engine application under the server
// lock. Engine rejections are per-request: a logged-but-rejected event
// replays to the same rejection during recovery, so recovered state still
// matches live state. Every request is answered after both locks are
// released: its own rejection if it had one, else the group's error.
func (s *Server) commitGroup(group []*commitReq) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
		for _, req := range group {
			verdict := req.err
			if verdict == nil {
				verdict = err
			}
			req.err = nil
			req.done <- verdict
		}
	}()
	s.ingest.Lock()
	defer s.ingest.Unlock()
	if s.wal != nil {
		encs := s.com.encs[:0]
		for _, req := range group {
			encs = append(encs, req.enc)
		}
		s.com.encs = encs
		if _, werr := s.wal.AppendEncoded(encs); werr != nil {
			err = fmt.Errorf("wal append: %w", werr)
			return
		}
		if ws := s.com.stats; ws != nil {
			ws.GroupCommits.Inc()
			ws.GroupSize.Observe(int64(len(group)))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	applied := 0
	for _, req := range group {
		req.err = s.reg.ApplyAdmitted(stream.Admitted{Catalog: s.cat, Events: req.evs})
		if req.err == nil {
			s.events += uint64(len(req.evs))
			applied += len(req.evs)
		}
	}
	err = s.maybeCheckpointLocked(applied)
}

// noteGroupDuration folds one swap's wall-clock cost into the EMA behind
// the overload retry hint (weight 1/8, cheap and lock-free).
func (s *Server) noteGroupDuration(d time.Duration) {
	prev := s.emaGroupNs.Load()
	if prev == 0 {
		s.emaGroupNs.Store(int64(d))
		return
	}
	s.emaGroupNs.Store(prev - prev/8 + int64(d)/8)
}

// retryAfter is the pacing hint attached to shed requests: about one swap
// drain, never less than a millisecond.
func (s *Server) retryAfter() time.Duration {
	d := time.Duration(s.emaGroupNs.Load())
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
