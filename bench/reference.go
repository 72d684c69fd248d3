package main

import (
	"fmt"
	"slices"
	"strings"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
)

// answer is one query's RESULT as the protocol renders it: the header
// line followed by the row lines. Server answers and reference answers are
// compared in this form, so the gate checks exactly what a client reads.
type answer []string

func renderResult(res *engine.Result) answer {
	out := answer{strings.Join(res.Columns, "|")}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func clientAnswer(cols []string, rows [][]string) answer {
	out := answer{strings.Join(cols, "|")}
	for _, r := range rows {
		out = append(out, strings.Join(r, "|"))
	}
	return out
}

func (a answer) equal(b answer) bool { return slices.Equal(a, b) }

// reference holds one uninstrumented Toaster per query of a workload
// (tail query last), fed in-process with the events the server was sent.
type reference struct {
	labels  []string
	engines []*engine.Toaster
}

func newReference(w *workload) (*reference, error) {
	r := &reference{}
	cat := w.cat()
	for _, q := range w.allQueries() {
		pq, err := engine.Prepare(q.sql, cat)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.label, err)
		}
		t, err := engine.NewToaster(pq, runtime.Options{NoMetrics: true})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.label, err)
		}
		r.labels = append(r.labels, q.label)
		r.engines = append(r.engines, t)
	}
	return r, nil
}

func (r *reference) apply(evs []stream.Event) error {
	for i, t := range r.engines {
		if err := t.OnEventBatch(evs); err != nil {
			return fmt.Errorf("reference %s: %w", r.labels[i], err)
		}
	}
	return nil
}

func (r *reference) answers() ([]answer, error) {
	out := make([]answer, len(r.engines))
	for i, t := range r.engines {
		res, err := t.Results()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.labels[i], err)
		}
		out[i] = renderResult(res)
	}
	return out, nil
}

// referenceAnswers replays every connection's stream (eventsPerConn
// events each, connection by connection: the queries are sums over the
// final books, exact in float64, so connection order does not matter)
// and returns the expected answer per query, tail query last. drop ≥ 0
// omits that many-th event on w.dropRelation — the negative self-test.
func referenceAnswers(w *workload, seed int64, eventsPerConn int, drop int) ([]answer, error) {
	ref, err := newReference(w)
	if err != nil {
		return nil, err
	}
	seen := 0
	for c := 0; c < w.conns; c++ {
		src := w.newSource(seed, c)
		for left := eventsPerConn; left > 0; {
			n := min(left, chunkEvents)
			evs := src.take(n)
			left -= n
			if drop >= 0 {
				for i, ev := range evs {
					if ev.Relation != w.dropRelation {
						continue
					}
					if seen == drop {
						evs = append(evs[:i:i], evs[i+1:]...)
						drop = -1
						break
					}
					seen++
				}
			}
			if err := ref.apply(evs); err != nil {
				return nil, err
			}
		}
	}
	return ref.answers()
}

// checkReferenceAgainstOracle feeds the first n events of connection 0 to
// both the reference Toasters and the re-evaluating Naive engine and
// requires identical answers: the reference the gate trusts is itself
// checked against the repo's oracle on every run.
func checkReferenceAgainstOracle(w *workload, seed int64, n int) error {
	ref, err := newReference(w)
	if err != nil {
		return err
	}
	evs := w.newSource(seed, 0).take(n)
	if err := ref.apply(evs); err != nil {
		return err
	}
	cat := w.cat()
	for i, q := range w.allQueries() {
		pq, err := engine.Prepare(q.sql, cat)
		if err != nil {
			return err
		}
		naive := engine.NewNaive(pq)
		if err := naive.OnEventBatch(evs); err != nil {
			return fmt.Errorf("oracle %s: %w", q.label, err)
		}
		res, err := naive.Results()
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.label, err)
		}
		// Result.Equal compares with numeric coercion: the oracle reports
		// counts as ints where the compiled engine holds floats.
		tres, err := ref.engines[i].Results()
		if err != nil {
			return err
		}
		if !res.Equal(tres) {
			return fmt.Errorf("reference disagrees with the re-evaluating oracle on %s after %d events:\nreference %v\noracle    %v",
				q.label, n, renderResult(tres), renderResult(res))
		}
	}
	return nil
}
