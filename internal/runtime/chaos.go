package runtime

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Chaos failpoints extend the WAL fault-injection pattern to the trigger
// path: tests (and the chaos smoke script, via environment variables) arm
// a deterministic panic or a fixed per-event delay on one relation, so the
// server stack's failure-isolation machinery can be driven end to end.
//
// The hook sits inside Engine.fire after trigger resolution, so it only
// fires for engines whose program actually reacts to the relation — the
// poison is scoped to the tenant that owns the trigger, which is exactly
// the failure the quarantine layer must contain. The disarmed cost is one
// atomic pointer load per fired trigger.
type chaosConfig struct {
	panicRel   string
	panicAfter uint64 // engine-local event ordinal at/after which to panic
	delayRel   string
	delay      time.Duration
}

var chaosCfg atomic.Pointer[chaosConfig]

// SetChaosPanic arms a deterministic failpoint: the engine panics while
// processing a trigger for rel once its engine-local event ordinal reaches
// after. Ordinals count every event routed to the engine instance, so a
// replay of the same stream re-fires the failpoint at the same position. A
// catching-up engine is not routed the log records of relations it has no
// trigger on, so its ordinal runs behind a boot-time engine's.
func SetChaosPanic(rel string, after uint64) {
	next := chaosSnapshot()
	next.panicRel = strings.ToLower(rel)
	next.panicAfter = after
	chaosCfg.Store(&next)
}

// SetChaosDelay arms a fixed sleep inside every trigger firing for rel,
// simulating a slow tenant for budget-enforcement and overload tests.
func SetChaosDelay(rel string, d time.Duration) {
	next := chaosSnapshot()
	next.delayRel = strings.ToLower(rel)
	next.delay = d
	chaosCfg.Store(&next)
}

// ClearChaos disarms all failpoints.
func ClearChaos() { chaosCfg.Store(nil) }

func chaosSnapshot() chaosConfig {
	if cur := chaosCfg.Load(); cur != nil {
		return *cur
	}
	return chaosConfig{}
}

// check runs inside fire; rel is the trigger's relation (compared case-
// insensitively) and ordinal the engine's event count. The injected panic
// is recovered by the containment layers above (Engine.fire's recover,
// then the registry fan-out backstop).
func (c *chaosConfig) check(rel string, ordinal uint64) {
	if c.delay > 0 && strings.EqualFold(rel, c.delayRel) {
		time.Sleep(c.delay)
	}
	if c.panicRel != "" && ordinal >= c.panicAfter && strings.EqualFold(rel, c.panicRel) {
		panic(fmt.Sprintf("chaos: injected trigger panic on %s (engine event %d)", rel, ordinal))
	}
}

// Environment arming for real binaries (the chaos smoke drives a stock
// dbtserver): DBT_CHAOS_PANIC="rel:ordinal", DBT_CHAOS_DELAY="rel:duration".
func init() {
	if v := os.Getenv("DBT_CHAOS_PANIC"); v != "" {
		if rel, arg, ok := strings.Cut(v, ":"); ok {
			if n, err := strconv.ParseUint(arg, 10, 64); err == nil {
				SetChaosPanic(rel, n)
			}
		}
	}
	if v := os.Getenv("DBT_CHAOS_DELAY"); v != "" {
		if rel, arg, ok := strings.Cut(v, ":"); ok {
			if d, err := time.ParseDuration(arg); err == nil && d > 0 {
				SetChaosDelay(rel, d)
			}
		}
	}
}

// PanicError is a trigger panic converted into an error by the containment
// recover in Engine.fire. The engine's own map state may be torn mid-
// statement, but the panic no longer propagates into the caller's stack —
// the registry quarantines the engine instead of the process dying.
type PanicError struct {
	Relation string
	Value    any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: trigger panic on %s: %v", e.Relation, e.Value)
}
