// Package stream defines the update-stream model: every base relation is
// subject to an arbitrary interleaving of tuple inserts and deletes with
// arbitrary tuple lifetimes — no windows, no ordered-deletion punctuation
// (the paper's key data-model difference from classic stream processors).
// Updates are modeled as delete/insert pairs, as in the paper.
package stream

import (
	"fmt"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/types"
)

// Op is the kind of a delta.
type Op uint8

// Delta operations.
const (
	Insert Op = iota
	Delete
)

// String renders "+"/"-".
func (o Op) String() string {
	if o == Insert {
		return "+"
	}
	return "-"
}

// Event is one tuple delta on a base relation.
type Event struct {
	Op Op
	// Ord is the relation's catalog ordinal, set by admission and read only
	// inside an Admitted batch (see schema.Catalog); elsewhere it is ignored.
	Ord      int32
	Relation string
	Args     types.Tuple
}

// Admitted is a batch of events admitted against Catalog where they entered
// the system: each event's Relation is the catalog's spelling and Ord its
// ordinal, and its Args have the relation's arity and column kinds, with
// ints already widened where the column is float. An engine built over the
// same catalog applies it with no per-event lookup, check or copy; one built
// over another catalog resolves each event by name.
type Admitted struct {
	Catalog *schema.Catalog
	Events  []Event
}

// String renders "+R(1, 2)".
func (e Event) String() string {
	return fmt.Sprintf("%s%s%s", e.Op, e.Relation, e.Args)
}

// Ins builds an insert event.
func Ins(rel string, args ...types.Value) Event {
	return Event{Op: Insert, Relation: rel, Args: args}
}

// Del builds a delete event.
func Del(rel string, args ...types.Value) Event {
	return Event{Op: Delete, Relation: rel, Args: args}
}

// Update expands an in-place tuple update into its delete/insert pair.
func Update(rel string, old, new types.Tuple) [2]Event {
	return [2]Event{
		{Op: Delete, Relation: rel, Args: old},
		{Op: Insert, Relation: rel, Args: new},
	}
}

// Source produces events; Next returns false when the stream is exhausted.
type Source interface {
	Next() (Event, bool)
}

// SliceSource replays a fixed event slice.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource wraps events in a Source.
func NewSliceSource(events []Event) *SliceSource { return &SliceSource{events: events} }

// Next implements Source.
func (s *SliceSource) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// Drain collects every remaining event from a source.
func Drain(src Source) []Event {
	var out []Event
	for {
		e, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// NextBatch fills buf (reusing its backing array) with up to max events
// from src, returning the filled slice and whether the source may have
// more. An empty slice with ok=false means the stream is exhausted.
func NextBatch(src Source, buf []Event, max int) ([]Event, bool) {
	if max < 1 {
		max = 1
	}
	buf = buf[:0]
	for len(buf) < max {
		e, ok := src.Next()
		if !ok {
			return buf, false
		}
		buf = append(buf, e)
	}
	return buf, true
}

// Batches splits events into consecutive chunks of at most n (the last
// chunk may be shorter). The chunks alias the input slice.
func Batches(events []Event, n int) [][]Event {
	if n < 1 {
		n = 1
	}
	out := make([][]Event, 0, (len(events)+n-1)/n)
	for len(events) > 0 {
		m := n
		if m > len(events) {
			m = len(events)
		}
		out = append(out, events[:m])
		events = events[m:]
	}
	return out
}
