package engine

import (
	"fmt"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/translate"
)

// MultiToaster maintains several standing queries in one shared trigger
// program: the compiler's canonical-form registry deduplicates maps across
// queries, so common subaggregates (a total both queries need, a shared
// join side) are maintained once and each event runs one merged trigger.
type MultiToaster struct {
	viewReader
	rt       *runtime.Engine
	queries  []*Query
	compiled *compiler.MultiCompiled
}

// NewToasterMulti compiles the queries (which must share one catalog) into
// a single program. Query translations are renamed q0, q1, ... so result
// maps do not collide.
func NewToasterMulti(queries []*Query, opts runtime.Options) (*MultiToaster, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("engine: no queries")
	}
	translated := make([]*translate.Query, len(queries))
	for i, q := range queries {
		if q.Catalog != queries[0].Catalog {
			return nil, fmt.Errorf("engine: queries must share one catalog")
		}
		q.Translated.Name = fmt.Sprintf("q%d", i)
		translated[i] = q.Translated
	}
	mc, err := compiler.CompileAll(translated)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.NewEngine(mc.Program, opts)
	if err != nil {
		return nil, err
	}
	m := &MultiToaster{
		viewReader: viewReader{views: rt, byQuery: map[*translate.Query]*compiler.QueryInfo{}},
		rt:         rt,
		queries:    queries,
		compiled:   mc,
	}
	for _, root := range mc.Roots {
		m.index(root)
	}
	return m, nil
}

// OnEvent applies one delta to every query's views through the merged
// trigger program.
func (m *MultiToaster) OnEvent(ev stream.Event) error {
	args, err := coerce(m.queries[0].Catalog, ev)
	if err != nil {
		return err
	}
	return m.rt.OnEvent(ev.Relation, ev.Op == stream.Insert, args)
}

// OnEventBatch applies a batch of deltas in stream order.
func (m *MultiToaster) OnEventBatch(evs []stream.Event) error {
	for _, ev := range evs {
		if err := m.OnEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of queries.
func (m *MultiToaster) Len() int { return len(m.queries) }

// Results returns query i's current answer.
func (m *MultiToaster) Results(i int) (*Result, error) {
	if i < 0 || i >= len(m.queries) {
		return nil, fmt.Errorf("engine: query index %d out of range", i)
	}
	return buildResult(m.queries[i].Translated, m.groups, m.compValue)
}

// MapCount returns the number of maps in the shared program.
func (m *MultiToaster) MapCount() int { return len(m.compiled.Program.Maps) }

// MemEntries returns the shared program's total map entries.
func (m *MultiToaster) MemEntries() int {
	n := 0
	for _, s := range m.rt.MemStats() {
		n += s.Entries
	}
	return n
}

// Compiled exposes the shared compilation artifact.
func (m *MultiToaster) Compiled() *compiler.MultiCompiled { return m.compiled }
