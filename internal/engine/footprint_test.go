package engine

import (
	stdruntime "runtime"
	"testing"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
)

func heapInUse() uint64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestApproxBytesTracksHeap holds the size estimate quotas enforce
// (Map.ApproxBytes through OwnedFootprint) to the heap the maps actually
// retain: within ±30 % on SSB 4.1 — packed and string-keyed maps carrying
// up to four slice indexes each — on per-order turnover, one un-indexed
// packed map, and on a MIN query's sorted packed map. (The demo's scalar
// turnover query keeps a single
// entry; its footprint is the fixed cost of an empty map, which no
// per-entry estimate describes.)
func TestApproxBytesTracksHeap(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		cat       *schema.Catalog
		events    []stream.Event
	}{
		{"ssb41", tpch.QuerySSB41, tpch.Catalog(), tpch.NewGenerator(1, 2).Workload(60000)},
		{"turnover-by-order", `select id, sum(price * volume) from bids group by id`,
			orderbook.Catalog(), orderbook.NewGenerator(1, 200000).Events(300000)},
		// A sorted map: packed (broker, id) keys with an ordered index.
		{"min-order-by-broker", `select broker, min(id) from bids group by broker`,
			orderbook.Catalog(), orderbook.NewGenerator(1, 200000).Events(300000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Prepare(tc.sql, tc.cat)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewToaster(q, runtime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			before := heapInUse()
			for _, ev := range tc.events {
				if err := e.OnEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			heap := heapInUse() - before
			entries, approx := e.OwnedFootprint()
			stdruntime.KeepAlive(e)
			t.Logf("%d entries: heap grew %d B (%.0f B/entry), ApproxBytes %d (%.0f B/entry), ratio %.2f",
				entries, heap, float64(heap)/float64(entries), approx, float64(approx)/float64(entries), float64(approx)/float64(heap))
			if r := float64(approx) / float64(heap); r < 0.7 || r > 1.3 {
				t.Errorf("ApproxBytes/heap = %.2f, want within ±30%%", r)
			}
		})
	}
}
