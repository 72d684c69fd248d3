package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// TestShardedDifferentialProperty drives 100 random query/stream pairs
// (reusing the random-query generator from fuzz_test.go) through Toaster,
// Naive and FirstOrderIVM event by event and through a second Toaster in
// uneven OnEventBatch chunks, with delete-heavy and update (delete/insert
// pair) phases, requiring exact Result agreement mid-stream and at the
// end. The name is kept from the sharded runtime, whose engines were
// once contenders here; the per-event and batch-fed partners remain.
func TestShardedDifferentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const pairs = 100
	for trial := 0; trial < pairs; trial++ {
		r := rand.New(rand.NewSource(int64(4000 + trial)))
		cat, src := randomQuery(r)
		t.Run(fmt.Sprintf("pair%d", trial), func(t *testing.T) {
			q, err := Prepare(src, cat)
			if err != nil {
				t.Fatalf("prepare %q: %v", src, err)
			}
			toaster, err := NewToaster(q, runtime.Options{})
			if err != nil {
				t.Fatalf("toaster %q: %v", src, err)
			}
			engines := []Engine{toaster, NewNaive(q), NewIVM(q)}
			// The batch-fed twin: the same stream delivered through
			// OnEventBatch (in uneven chunks) must agree exactly with the
			// per-event path.
			batchToaster, err := NewToaster(q, runtime.Options{})
			if err != nil {
				t.Fatalf("batch toaster %q: %v", src, err)
			}
			batched := []Engine{batchToaster}
			var pending []stream.Event
			flushBatched := func() {
				for _, chunk := range stream.Batches(pending, 7) {
					for _, e := range batched {
						if err := e.OnEventBatch(chunk); err != nil {
							t.Fatalf("%q: %s OnEventBatch: %v", src, e.Name(), err)
						}
					}
				}
				pending = pending[:0]
			}

			feed := func(ev stream.Event) {
				for _, e := range engines {
					if err := e.OnEvent(ev); err != nil {
						t.Fatalf("%q: %s OnEvent(%s): %v", src, e.Name(), ev, err)
					}
				}
				pending = append(pending, ev)
			}
			randTuple := func() types.Tuple {
				return types.Tuple{types.NewInt(int64(r.Intn(5))), types.NewInt(int64(r.Intn(5)))}
			}
			relOf := func() string { return fmt.Sprintf("F%d", r.Intn(3)) }

			var live []stream.Event
			// Phase 1: insert-leaning mixed stream.
			for i := 0; i < 60; i++ {
				if len(live) > 0 && r.Intn(4) == 0 {
					idx := r.Intn(len(live))
					old := live[idx]
					live = append(live[:idx], live[idx+1:]...)
					feed(stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
				} else {
					ev := stream.Event{Op: stream.Insert, Relation: relOf(), Args: randTuple()}
					live = append(live, ev)
					feed(ev)
				}
			}
			all := append(append([]Engine{}, engines...), batched...)
			flushBatched()
			requireAgreement(t, all, src+" after inserts")
			// Phase 2: update workload — in-place tuple updates expand to
			// delete/insert pairs via stream.Update.
			for i := 0; i < 30 && len(live) > 0; i++ {
				idx := r.Intn(len(live))
				old := live[idx]
				pair := stream.Update(old.Relation, old.Args, randTuple())
				live[idx] = stream.Event{Op: stream.Insert, Relation: old.Relation, Args: pair[1].Args}
				feed(pair[0])
				feed(pair[1])
			}
			flushBatched()
			requireAgreement(t, all, src+" after updates")
			// Phase 3: delete-heavy drain.
			for len(live) > 0 {
				idx := r.Intn(len(live))
				old := live[idx]
				live = append(live[:idx], live[idx+1:]...)
				feed(stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args})
			}
			flushBatched()
			requireAgreement(t, all, src+" after drain")
		})
	}
}

// shardFuzzQueries spans the query shapes the batch path must handle:
// single-relation group-by, joins grouped on either side, a scalar
// three-way join, and min over a sorted map.
var shardFuzzQueries = []string{
	"select B, sum(A) from R group by B",
	"select R.B, sum(R.A*S.C) from R, S where R.B = S.B group by R.B",
	"select S.C, sum(R.A) from R, S where R.B = S.B group by S.C",
	"select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C",
	"select B, min(A), count(*) from R group by B",
}

// FuzzBatchAgreement fuzzes the event order, event mix and batch chunk
// size, and requires a Toaster fed through OnEventBatch to agree exactly
// with a per-event Toaster oracle on the same stream.
//
// Input layout: byte 0 → batch chunk size, byte 1 → query index, then 3
// bytes per event: [op/relation selector, column values...]. An odd
// selector deletes a previously inserted tuple (chosen by the same byte),
// keeping streams well-formed so every engine sees valid deltas.
func FuzzBatchAgreement(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 0, 3, 4, 1, 1, 2})
	f.Add([]byte{8, 1, 0, 1, 1, 2, 1, 1, 4, 2, 2, 6, 3, 3})
	f.Add([]byte{1, 3, 0, 0, 0, 2, 1, 1, 4, 2, 2, 3, 0, 0, 5, 1, 2})
	f.Add([]byte{5, 4, 0, 2, 2, 1, 2, 2, 0, 2, 2, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		chunk := 1 + int(data[0])%5
		src := shardFuzzQueries[int(data[1])%len(shardFuzzQueries)]
		data = data[2:]

		q, err := Prepare(src, testCatalog())
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		oracle, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatalf("toaster: %v", err)
		}

		rels := []string{"R", "S", "T"}
		var history []stream.Event
		var replay []stream.Event
		for len(data) >= 3 {
			sel, a, b := data[0], data[1], data[2]
			data = data[3:]
			var ev stream.Event
			if sel%2 == 1 && len(history) > 0 {
				old := history[int(sel)%len(history)]
				ev = stream.Event{Op: stream.Delete, Relation: old.Relation, Args: old.Args}
			} else {
				ev = stream.Event{Op: stream.Insert, Relation: rels[int(sel/2)%3], Args: types.Tuple{
					types.NewInt(int64(a % 8)), types.NewInt(int64(b % 8)),
				}}
				history = append(history, ev)
			}
			if err := oracle.OnEvent(ev); err != nil {
				t.Fatalf("oracle OnEvent(%s): %v", ev, err)
			}
			replay = append(replay, ev)
		}
		want, err := oracle.Results()
		if err != nil {
			t.Fatalf("oracle results: %v", err)
		}

		bt, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatalf("batch toaster: %v", err)
		}
		for _, c := range stream.Batches(replay, chunk) {
			if err := bt.OnEventBatch(c); err != nil {
				t.Fatalf("toaster OnEventBatch: %v", err)
			}
		}
		got, err := bt.Results()
		if err != nil {
			t.Fatalf("batched results: %v", err)
		}
		if !want.Equal(got) {
			t.Fatalf("%q batched (chunk %d) disagrees with oracle\nwant:\n%s\ngot:\n%s", src, chunk, want, got)
		}
	})
}
