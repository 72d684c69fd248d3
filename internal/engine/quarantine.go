package engine

import (
	"errors"
	"fmt"
	"time"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
)

// Failure isolation: the fan-out treats each live query as a tenant whose
// misbehavior — a panicking trigger, a blown size quota, repeated time-
// budget breaches — must not disturb the other N−1 tenants. The offending
// query moves to StateQuarantined: skipped by the fan-out, its engine
// dropped, its name and reason still listed so operators see what
// happened, and revivable by a fresh REGISTER (which catches up from the
// retained WAL).
//
// Quarantine is a side effect, not a request failure: by the time the
// breach is detected the event batch was durably logged and applied by
// every healthy engine, so the producer's request succeeds. Only ordinary
// per-event rejections (kind mismatches), which replay identically during
// recovery, surface to the producer as before.

// quarantineCase is one pending demotion collected during a fan-out pass.
type quarantineCase struct {
	ent    *regEntry
	reason string
	// corrupt means the engine panicked mid-event: maps it owns in the
	// sharing pool may be torn, so borrowers cannot inherit them.
	corrupt bool
}

// SetQuota installs the per-query limits enforced by the fan-out. Set it
// before ingest starts; it is not synchronized against in-flight events.
func (r *Registry) SetQuota(q Quota) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quota = q
}

// SetQuarantineHook installs the callback invoked (under the registry
// lock) when a fan-out pass quarantines a query; it returns the query's
// last-good WAL sequence. The server's hook appends the durable
// RecQuarantine record.
func (r *Registry) SetQuarantineHook(h func(name, reason string) (lastGood uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onQuarantine = h
}

// SetBudgetEnforcement toggles trigger-time-budget enforcement. Recovery
// turns it off while replaying the log — wall-clock timing is not
// deterministic, and replayed quarantines come from their WAL records.
func (r *Registry) SetBudgetEnforcement(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enforceBudget = on
}

// fanState snapshots what one fan-out pass needs under a single lock
// acquisition.
func (r *Registry) fanState() (live []*regEntry, quota Quota, enforce, eventMajor bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live, r.quota, r.enforceBudget, r.eventMajor
}

// passState is one engine's outcome over a fan-out pass.
type passState struct {
	err     error // first engine error
	pval    any   // recovered panic value
	elapsed time.Duration
}

func (p *passState) stopped() bool { return p.err != nil || p.pval != nil }

// maxScratchEvents bounds the admitted-events scratch kept between passes,
// so one huge batch does not pin its footprint for the registry's lifetime.
const maxScratchEvents = 4096

// admit validates, coerces and stamps evs against cat, once for the whole
// fan-out rather than once per engine, into the reused admitted slice. It
// stops at the first rejected event and returns the admitted prefix with the
// rejection: the engines apply exactly that prefix, which is also what an
// engine fed the batch directly (admitting for itself) ends up applying.
func (r *Registry) admit(cat *schema.Catalog, evs []stream.Event) ([]stream.Event, error) {
	out := r.admitted[:0]
	var err error
	for _, ev := range evs {
		if ev, err = admit(cat, ev); err != nil {
			break
		}
		out = append(out, ev)
	}
	if cap(out) <= maxScratchEvents {
		r.admitted = out
	} else {
		r.admitted = nil
	}
	return out, err
}

// fanOut applies evs to every live engine, newest registration first,
// containing per-engine failures. Healthy engines always see the delta
// even when another engine rejects or dies on it. cat is the catalog evs
// were admitted against; nil admits them here. Passes must not overlap:
// the caller serializes them (the server's commit lane does), as it must for
// the single-threaded engines anyway.
func (r *Registry) fanOut(evs []stream.Event, cat *schema.Catalog) error {
	live, quota, enforce, eventMajor := r.fanState()
	if len(live) == 0 {
		return nil
	}
	var firstErr error
	if cat == nil {
		// Every query of one registry is prepared against the same schema;
		// the oldest live query's catalog speaks for all.
		cat = live[len(live)-1].q.Catalog
		evs, firstErr = r.admit(cat, evs)
	}
	admitted := stream.Admitted{Catalog: cat, Events: evs}
	n := len(evs)
	if n == 0 {
		return firstErr
	}
	timed := enforce && quota.TriggerBudget > 0
	if cap(r.pass) < len(live) {
		r.pass = make([]passState, len(live))
	}
	pass := r.pass[:len(live)]
	clear(pass)
	if eventMajor && n > 1 {
		// Some engine reads a map another (older) engine maintains: every
		// engine must finish event i before any starts event i+1, or the
		// reader would see the map as of the batch, not the event.
		for i := range evs {
			admitted.Events = evs[i : i+1]
			for j, e := range live {
				if !pass[j].stopped() {
					runGuarded(e.eng, admitted, timed, &pass[j])
				}
			}
		}
	} else {
		for j, e := range live {
			runGuarded(e.eng, admitted, timed, &pass[j])
		}
	}

	var cases []quarantineCase
	for j, e := range live {
		p := &pass[j]
		if p.pval != nil {
			cases = append(cases, quarantineCase{e, fmt.Sprintf("trigger panic: %v", p.pval), true})
			continue
		}
		if err := p.err; err != nil {
			var pe *runtime.PanicError
			switch {
			case errors.As(err, &pe):
				cases = append(cases, quarantineCase{e, fmt.Sprintf("trigger panic: %v", pe.Value), true})
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		if timed {
			if p.elapsed > quota.TriggerBudget*time.Duration(n) {
				e.breaches++
				if e.breaches >= quota.breachLimit() {
					qe := &QuotaExceededError{Query: e.name, Resource: "trigger-budget",
						Limit: uint64(quota.TriggerBudget) * uint64(n), Actual: uint64(p.elapsed)}
					cases = append(cases, quarantineCase{e, qe.Error(), false})
					continue
				}
			} else {
				e.breaches = 0
			}
		}
		if quota.MaxEntries > 0 || quota.MaxBytes > 0 {
			entries, bytes, ok := footprintOf(e.eng)
			if !ok {
				continue
			}
			if quota.MaxEntries > 0 && entries > quota.MaxEntries {
				qe := &QuotaExceededError{Query: e.name, Resource: "map-entries",
					Limit: uint64(quota.MaxEntries), Actual: uint64(entries)}
				cases = append(cases, quarantineCase{e, qe.Error(), false})
			} else if quota.MaxBytes > 0 && bytes > quota.MaxBytes {
				qe := &QuotaExceededError{Query: e.name, Resource: "map-bytes",
					Limit: quota.MaxBytes, Actual: bytes}
				cases = append(cases, quarantineCase{e, qe.Error(), false})
			}
		}
	}
	if len(cases) > 0 {
		r.applyQuarantines(cases)
	}
	return firstErr
}

// runGuarded applies admitted events to one engine behind a panic backstop,
// accumulating the outcome in p. The runtime's own containment converts
// trigger panics to *runtime.PanicError; the recover here catches
// everything above that layer.
func runGuarded(eng CompiledEngine, b stream.Admitted, timed bool, p *passState) {
	defer func() {
		if v := recover(); v != nil {
			p.pval = v
		}
	}()
	var start time.Time
	if timed {
		start = time.Now()
	}
	p.err = ApplyAdmitted(eng, b)
	if timed {
		p.elapsed += time.Since(start)
	}
}

// applyQuarantines demotes the collected casualties under the registry
// lock.
func (r *Registry) applyQuarantines(cases []quarantineCase) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cases {
		r.quarantineLocked(c.ent, c.reason, 0, true, c.corrupt)
	}
	r.rebuildLiveLocked()
}

// Quarantine demotes a live query by name (the WAL-replay and test entry
// point; fan-out-detected failures go through applyQuarantines, which also
// invokes the hook). lastGood is recorded as-is.
func (r *Registry) Quarantine(name, reason string, lastGood uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.entries[name]
	if ent == nil || ent.state != StateLive {
		return fmt.Errorf("query %q is not live", name)
	}
	r.quarantineLocked(ent, reason, lastGood, false, false)
	r.rebuildLiveLocked()
	return nil
}

// InstallQuarantined recreates a quarantined entry without an engine (the
// checkpoint-restore path: the entry's state was never snapshotted, only
// its name, SQL, and reason).
func (r *Registry) InstallQuarantined(name, sql, reason string, fromSeq, lastGood uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("query %q already registered", name)
	}
	r.entries[name] = &regEntry{
		name: name, sql: sql, state: StateQuarantined, reason: reason,
		fromSeq: fromSeq, lastGood: lastGood, seq: r.nextSeq,
	}
	r.nextSeq++
	return nil
}

// quarantineLocked demotes ent and handles the sharing pool: borrowed
// refs are released; owned maps are promoted to their oldest borrower
// (exactly like Remove) unless the demotion is corrupt — a mid-event
// panic may have torn the owned maps, so every borrower reading them is
// cascaded into quarantine too. The engine is dropped.
func (r *Registry) quarantineLocked(root *regEntry, reason string, lastGood uint64, useHook, corrupt bool) {
	type item struct {
		e       *regEntry
		reason  string
		corrupt bool
	}
	queue := []item{{root, reason, corrupt}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		e := it.e
		if e.state != StateLive {
			continue
		}
		lg := lastGood
		if useHook && r.onQuarantine != nil {
			lg = r.onQuarantine(e.name, it.reason)
		}
		e.state = StateQuarantined
		e.reason = it.reason
		e.lastGood = lg
		e.breaches = 0
		for sig := range e.borrowed {
			if pe := r.pool[sig]; pe != nil {
				pe.refs--
				if pe.refs == 0 {
					delete(r.pool, sig)
				}
			}
		}
		e.borrowed = map[string]string{}
		promote := map[*regEntry][]string{}
		for sig, mn := range e.owned {
			pe := r.pool[sig]
			if pe == nil {
				continue
			}
			pe.refs--
			if pe.refs == 0 {
				delete(r.pool, sig)
				continue
			}
			if it.corrupt {
				delete(r.pool, sig)
				for _, b := range r.borrowersLocked(sig) {
					queue = append(queue, item{b, fmt.Sprintf("shared map %s lost: owner %q quarantined: %s", mn, e.name, it.reason), false})
				}
				continue
			}
			b := r.oldestBorrowerLocked(sig)
			if b == nil {
				delete(r.pool, sig)
				continue
			}
			promote[b] = append(promote[b], sig)
		}
		for b, sigsToOwn := range promote {
			if err := r.promoteLocked(b, sigsToOwn); err != nil {
				// The borrower cannot inherit a map nobody maintains:
				// cascade it (and any other borrowers of those sigs).
				for _, sig := range sigsToOwn {
					delete(r.pool, sig)
					for _, b2 := range r.borrowersLocked(sig) {
						queue = append(queue, item{b2, fmt.Sprintf("ownership promotion failed: %v", err), false})
					}
				}
			}
		}
		e.owned = map[string]string{}
		e.eng = nil
		e.q = nil
	}
}

// borrowersLocked lists the live entries borrowing sig.
func (r *Registry) borrowersLocked(sig string) []*regEntry {
	var out []*regEntry
	for _, e := range r.entries {
		if e.state != StateLive {
			continue
		}
		if _, ok := e.borrowed[sig]; ok {
			out = append(out, e)
		}
	}
	return out
}
