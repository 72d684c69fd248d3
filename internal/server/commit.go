package server

import (
	"fmt"
	"sync"
	"time"

	"dbtoaster/internal/stream"
	"dbtoaster/internal/wal"
)

// Group commit. Every accepted delta — INSERT, DELETE, or BATCH, from any
// connection — flows through a single committer goroutine instead of
// appending to the WAL and applying to the engines under the server lock
// inline. Concurrent connections that arrive while a group is in flight
// coalesce into the next group: one WAL write (and one fsync when -wal-sync
// is set) covers all of them, and each producer is acknowledged only after
// its events' sequence numbers are durable and applied. This turns the
// fsync cost from per-connection into per-group while keeping the
// write-ahead invariant per producer.
//
// Ordering: the committer appends groups to the WAL and applies them to
// the engines in the same arrival order, so WAL sequence numbers always
// match apply order and recovery replays the exact live history. The
// s.ingest mutex spans append→apply and is shared with Checkpoint, so a
// checkpoint can never capture a WAL watermark covering events that have
// not reached the engines (which recovery would then skip, losing them).

// commitReq is one producer's pending contribution to a commit group, or —
// when ctrl is set — a control operation (query registration swap,
// unregistration, recovery-sensitive maintenance) that must execute at a
// definite point in the ingest order: every event committed before it is
// applied first, every event after it waits. Control operations run under
// both the ingest and server locks, so they observe a quiescent engine set
// and may replace it.
type commitReq struct {
	evs []stream.Event
	// enc is evs as log records (wal.AppendEventRecord), encoded by the
	// producer before it queued the request; empty without a WAL.
	enc  []byte
	ctrl func() error
	err  error // per-request apply verdict, set by the committer
	// done carries the committer's reply; 1-buffered, so a session reuses
	// one request (and channel) for every delta command it serves.
	done chan error
}

// committer serializes ingest into coalesced commit groups.
type committer struct {
	mu      sync.Mutex
	pending []*commitReq
	// pendingEvents counts the events (not requests) queued for the next
	// group — the admission-control gauge MaxPending compares against.
	pendingEvents int
	wake          chan struct{} // 1-buffered; a wake may cover many requests
	stop          chan struct{}
	stopOnce      sync.Once
	done          chan struct{}
	// Owned by the commit loop: the emptied request list that becomes
	// pending at the next swap, and the per-group list of encode buffers.
	spare []*commitReq
	encs  [][]byte
}

// OverloadedError reports a shed request: admission control refused it
// because the committer's pending backlog was over the configured budget.
// RetryAfter is a pacing hint — the EMA of recent group-commit durations,
// roughly one drain cycle.
type OverloadedError struct {
	PendingEvents int
	Limit         int
	RetryAfter    time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: %d events pending (limit %d), retry_after_ms=%d",
		e.PendingEvents, e.Limit, e.RetryAfter.Milliseconds())
}

func newCommitter() *committer {
	return &committer{
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// startCommitter launches the commit loop; called once construction cannot
// fail anymore, so Close always finds a committer to stop.
func (s *Server) startCommitter() {
	s.com = newCommitter()
	go s.runCommitter()
}

// stopCommitter drains outstanding requests and stops the loop; it is
// idempotent. Callers must first guarantee no new commit() calls (Close
// drains connections before stopping).
func (s *Server) stopCommitter() {
	if s.com == nil {
		return
	}
	s.com.stopOnce.Do(func() { close(s.com.stop) })
	<-s.com.done
}

// commit hands the session's request — evs, parsed into the request's slab
// — to the committer and blocks until the group containing it is durable
// and applied. This is the only ingest path. The log records are encoded
// here, on the connection's goroutine while the values are still in cache,
// into the session's own buffer: connections encode in parallel, and the
// committer's serial section is left with numbering, checksumming and
// writing them.
//
// Admission control: with MaxPending set, a request that would push the
// queued backlog past the budget is shed with an OverloadedError instead
// of enqueued — the producer gets a structured rejection and a retry hint
// while the committer drains. A request arriving at an empty backlog is
// always admitted, even if it alone exceeds the budget: rejecting it could
// never succeed on retry.
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
	s.com.mu.Lock()
	if s.maxPending > 0 && s.com.pendingEvents > 0 && s.com.pendingEvents+len(evs) > s.maxPending {
		pending := s.com.pendingEvents
		s.com.mu.Unlock()
		if s.sink != nil {
			rs := s.sink.Robust()
			rs.ShedRequests.Inc()
			rs.ShedEvents.Add(uint64(len(evs)))
		}
		return &OverloadedError{PendingEvents: pending, Limit: s.maxPending, RetryAfter: s.retryAfter()}
	}
	s.com.pending = append(s.com.pending, req)
	s.com.pendingEvents += len(evs)
	s.com.mu.Unlock()
	select {
	case s.com.wake <- struct{}{}:
	default:
	}
	return <-req.done
}

func (s *Server) runCommitter() {
	defer close(s.com.done)
	for {
		select {
		case <-s.com.wake:
			s.commitPending()
		case <-s.com.stop:
			s.commitPending() // requests enqueued before the stop still ack
			return
		}
	}
}

// commitPending repeatedly swaps out the pending slice and commits it as
// one group, until no requests remain. Requests arriving mid-group land in
// the next swap — that accumulation window is what coalesces concurrent
// producers. Control operations split the swapped slice: events before a
// control op commit as their own group first, then the op runs alone, then
// the remainder — arrival order is the ingest order either side of the op.
func (s *Server) commitPending() {
	for {
		s.com.mu.Lock()
		all := s.com.pending
		s.com.pending = s.com.spare
		s.com.pendingEvents = 0
		s.com.mu.Unlock()
		for group := all; len(group) > 0; {
			cut := len(group)
			for i, req := range group {
				if req.ctrl != nil {
					cut = i
					break
				}
			}
			if cut > 0 {
				s.commitGroup(group[:cut])
				group = group[cut:]
				continue
			}
			s.runCtrl(group[0])
			group = group[1:]
		}
		// The two request lists alternate, so steady-state grouping
		// allocates nothing; cleared, so an answered request is not kept
		// reachable from here.
		clear(all)
		s.com.spare = all[:0]
		if len(all) == 0 {
			return
		}
	}
}

// runCtrl executes one control operation under the same lock order as a
// commit group (ingest, then the server lock), so it observes every prior
// event applied and no later event started.
func (s *Server) runCtrl(req *commitReq) {
	s.ingest.Lock()
	s.mu.Lock()
	err := req.ctrl()
	s.mu.Unlock()
	s.ingest.Unlock()
	req.done <- err
}

// control runs op at a definite point in the ingest order (see commitReq).
// Before the committer starts — construction and recovery are
// single-threaded — it runs op inline under the same locks.
func (s *Server) control(op func() error) error {
	if s.com == nil {
		s.ingest.Lock()
		defer s.ingest.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		return op()
	}
	req := &commitReq{ctrl: op, done: make(chan error, 1)}
	s.com.mu.Lock()
	s.com.pending = append(s.com.pending, req)
	s.com.mu.Unlock()
	select {
	case s.com.wake <- struct{}{}:
	default:
	}
	return <-req.done
}

// commitGroup makes one group durable and applies it: a single WAL batch
// append covering every request's events in arrival order (write-ahead for
// the whole group — a WAL failure fails every producer before any engine
// sees an event), then per-request engine application under the server
// lock. Engine rejections are per-request: a logged-but-rejected event
// replays to the same rejection during recovery, so recovered state still
// matches live state.
func (s *Server) commitGroup(group []*commitReq) {
	start := time.Now()
	defer func() { s.noteGroupDuration(time.Since(start)) }()
	s.ingest.Lock()
	if s.wal != nil {
		encs := s.com.encs[:0]
		for _, req := range group {
			encs = append(encs, req.enc)
		}
		s.com.encs = encs
		if _, err := s.wal.AppendEncoded(encs); err != nil {
			s.ingest.Unlock()
			werr := fmt.Errorf("wal append: %w", err)
			for _, req := range group {
				req.done <- werr
			}
			return
		}
		if s.sink != nil {
			ws := s.sink.WAL()
			ws.GroupCommits.Inc()
			ws.GroupSize.Observe(int64(len(group)))
		}
	}

	s.mu.Lock()
	applied := 0
	for _, req := range group {
		req.err = s.reg.OnEventBatch(req.evs)
		if req.err == nil {
			s.events += uint64(len(req.evs))
			applied += len(req.evs)
		}
	}
	ckErr := s.maybeCheckpointLocked(applied)
	s.mu.Unlock()
	s.ingest.Unlock()

	for _, req := range group {
		err := req.err
		if err == nil {
			err = ckErr
		}
		req.done <- err
	}
}

// noteGroupDuration folds one group's wall-clock cost into the EMA behind
// the overload retry hint (weight 1/8, cheap and lock-free).
func (s *Server) noteGroupDuration(d time.Duration) {
	prev := s.emaGroupNs.Load()
	if prev == 0 {
		s.emaGroupNs.Store(int64(d))
		return
	}
	s.emaGroupNs.Store(prev - prev/8 + int64(d)/8)
}

// retryAfter is the pacing hint attached to shed requests: about one group
// drain, never less than a millisecond.
func (s *Server) retryAfter() time.Duration {
	d := time.Duration(s.emaGroupNs.Load())
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
