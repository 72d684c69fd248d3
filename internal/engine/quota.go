package engine

import (
	"fmt"
	"time"
)

// Quota bounds one query's resource consumption inside the shared fan-out.
// Limits are enforced per live query after each fan-out application, so a
// tenant that outgrows its budget is quarantined instead of degrading the
// other tenants. The zero value disables all limits.
type Quota struct {
	// MaxEntries caps the total entry count across the maps a query owns
	// (maps adopted from the sharing pool are charged to their owner).
	MaxEntries int
	// MaxBytes caps the approximate resident bytes of owned maps, using
	// the layout heuristic shared with metrics.MapStats.ApproxBytes.
	MaxBytes uint64
	// TriggerBudget is the wall-clock budget for applying one event (a
	// batch's budget scales with its length). Breaches are counted, not
	// immediately fatal: BudgetBreaches consecutive over-budget fan-out
	// calls quarantine the query, so one GC pause or cold cache does not.
	TriggerBudget time.Duration
	// BudgetBreaches is the consecutive-breach threshold (default 3).
	BudgetBreaches int
}

func (q Quota) breachLimit() int {
	if q.BudgetBreaches > 0 {
		return q.BudgetBreaches
	}
	return 3
}

// QuotaExceededError reports which resource a query outgrew. It is the
// quarantine reason recorded in the WAL and surfaced by LIST/STATS.
type QuotaExceededError struct {
	Query    string
	Resource string // "map-entries", "map-bytes", or "trigger-budget"
	Limit    uint64
	Actual   uint64
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("quota exceeded: query %q %s %d over limit %d", e.Query, e.Resource, e.Actual, e.Limit)
}

// footprinter is the cheap cost-accounting surface: engines that can count
// owned entries/bytes without allocating implement it (Toaster via the
// runtime). Engines without it — the sharded runtime, whose entry count
// requires a cross-worker quiesce — are exempt from size quotas rather
// than paying a flush barrier per event.
type footprinter interface{ OwnedFootprint() (int, uint64) }

func footprintOf(eng Engine) (entries int, bytes uint64, ok bool) {
	if f, ok := eng.(footprinter); ok {
		entries, bytes = f.OwnedFootprint()
		return entries, bytes, true
	}
	return 0, 0, false
}
