package engine

import (
	"testing"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
)

// TestFanOutOrderFollowsBorrowedReads checks when a batch is fanned out
// event by event: exactly while some live query's own statements read a map
// it borrows. The join query that owns what it reads keeps the engine-major
// path however many queries share its maps; the same join registered after
// the aggregates it reads switches the registry over, and removing it
// switches back. Either way every query agrees with a private engine.
func TestFanOutOrderFollowsBorrowedReads(t *testing.T) {
	cat := orderbook.Catalog()
	evs := orderbook.NewGenerator(3, 200).Events(6000)
	check := func(r *Registry, fed []stream.Event, name, sql string) {
		t.Helper()
		q, err := Prepare(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewToaster(q, runtime.Options{NoMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.OnEventBatch(fed); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Results()
		eng, ok := r.Get(name)
		if !ok {
			t.Fatalf("query %s not live", name)
		}
		if got, _ := eng.Results(); !got.Equal(want) {
			t.Errorf("query %s:\n%swant\n%s", name, got, want)
		}
	}

	r := NewRegistry(true)
	installOver(t, r, cat, "spreadcover", orderbook.QueryBidAskSpreadCover)
	installOver(t, r, cat, "netask", orderbook.QueryBrokerNetAsk)
	installOver(t, r, cat, "askbroker", "select broker, count(*), sum(volume) from asks group by broker")
	if len(infoOf(t, r, "netask").Shared)+len(infoOf(t, r, "askbroker").Shared) == 0 {
		t.Fatal("the aggregates borrowed nothing from the join; the test exercises nothing")
	}
	if r.eventMajor {
		t.Fatal("borrowers that only maintain their own maps forced the event-major fan-out")
	}
	for _, b := range stream.Batches(evs[:3000], 256) {
		if err := r.OnEventBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	// twosided reads a per-broker ask count that spreadcover owns by now.
	// It starts from the empty database here, so only its mode is checked;
	// the server-level test covers its answers.
	installOver(t, r, cat, "late", orderbook.QueryTwoSidedVolume)
	if r.eventMajor != (len(infoOf(t, r, "late").Shared) > 0) {
		t.Fatalf("eventMajor = %v with late borrowing %v", r.eventMajor, infoOf(t, r, "late").Shared)
	}
	for _, b := range stream.Batches(evs[3000:], 256) {
		if err := r.OnEventBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Remove("late"); err != nil {
		t.Fatal(err)
	}
	if r.eventMajor {
		t.Fatal("event-major fan-out outlived the only reading borrower")
	}
	check(r, evs, "spreadcover", orderbook.QueryBidAskSpreadCover)
	check(r, evs, "netask", orderbook.QueryBrokerNetAsk)

	// The reverse registration order: the join comes last and borrows.
	r2 := NewRegistry(true)
	installOver(t, r2, cat, "netask", orderbook.QueryBrokerNetAsk)
	installOver(t, r2, cat, "askbroker", "select broker, count(*), sum(volume) from asks group by broker")
	installOver(t, r2, cat, "twosided", orderbook.QueryTwoSidedVolume)
	installOver(t, r2, cat, "spreadcover", orderbook.QueryBidAskSpreadCover)
	if !r2.eventMajor {
		t.Fatalf("joins borrowing %v and %v did not force the event-major fan-out",
			infoOf(t, r2, "twosided").Shared, infoOf(t, r2, "spreadcover").Shared)
	}
	for _, b := range stream.Batches(evs, 256) {
		if err := r2.OnEventBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	check(r2, evs, "twosided", orderbook.QueryTwoSidedVolume)
	check(r2, evs, "spreadcover", orderbook.QueryBidAskSpreadCover)
	check(r2, evs, "netask", orderbook.QueryBrokerNetAsk)
}

// TestRegistryForeignCatalogResolvesByName feeds batches stamped against
// another *schema.Catalog — the order book's relations in the other order,
// so each ordinal names the other relation — and checks every query ends
// where a private engine fed the events by name does: a batch whose catalog
// is not an engine's own is resolved by name, never by ordinal. The same
// batches stamped against the queries' own catalog end there too.
func TestRegistryForeignCatalogResolvesByName(t *testing.T) {
	cat := orderbook.Catalog()
	rels := cat.Relations()
	foreign := schema.NewCatalog(rels[1], rels[0])
	if _, ord, _ := foreign.Lookup("bids"); ord != 1 {
		t.Fatalf("foreign catalog puts bids at ordinal %d; the test needs the order swapped", ord)
	}
	queries := map[string]string{
		"turnover":    orderbook.QueryBidTurnover,
		"askdepth":    orderbook.QueryAskDepth,
		"spreadcover": orderbook.QueryBidAskSpreadCover,
	}
	evs := orderbook.NewGenerator(5, 200).Events(3000)
	for _, stampedBy := range []*schema.Catalog{foreign, cat} {
		r := NewRegistry(true)
		for _, name := range []string{"turnover", "askdepth", "spreadcover"} {
			installOver(t, r, cat, name, queries[name])
		}
		for _, b := range stream.Batches(evs, 256) {
			if err := r.ApplyAdmitted(admitAll(t, stampedBy, b)); err != nil {
				t.Fatal(err)
			}
		}
		for name, sql := range queries {
			q, err := Prepare(sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewToaster(q, runtime.Options{NoMetrics: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				if err := ref.OnEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			want, _ := ref.Results()
			eng, _ := r.Get(name)
			if got, _ := eng.Results(); !got.Equal(want) {
				t.Errorf("stamped against the %s catalog, query %s:\n%swant\n%s",
					map[bool]string{true: "foreign", false: "own"}[stampedBy == foreign], name, got, want)
			}
		}
	}
}
