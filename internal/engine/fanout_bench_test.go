package engine

import (
	"testing"

	"dbtoaster/internal/metrics"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
)

// fanout16Queries are the sixteen standing queries of the fanout16_rw
// serving workload: ten of the order-book demo queries plus six variants
// with other constants or the other book side, so some maps are shared
// across queries and some are not.
var fanout16Queries = []string{
	orderbook.QueryBidAskSpreadCover,
	orderbook.QueryVWAPThreshold,
	orderbook.QueryBidTurnover,
	orderbook.QueryBrokerActivity,
	orderbook.QueryBidDepth,
	orderbook.QueryAskTurnover,
	orderbook.QueryAskDepth,
	orderbook.QueryBrokerNetBid,
	orderbook.QueryBrokerNetAsk,
	orderbook.QueryBrokerAvgPrice,
	`select sum(price * volume) from bids where price > 0.5 * (select sum(volume) from bids)`,
	`select sum(price * volume) from asks where price > 0.25 * (select sum(volume) from asks)`,
	`select broker, count(*), sum(volume) from asks group by broker`,
	`select broker, avg(price) from asks group by broker`,
	`select sum(volume) from bids where price > 100`,
	`select broker, sum(price * volume) from bids group by broker`,
}

// BenchmarkRegistryFanOut is the registry's share of fanout16_rw: BATCH 256
// requests of order-book deltas fanned out to sixteen live queries with a
// metrics sink attached, as the server runs them; one op is 64 requests. The contenders differ only
// in how an event finds its trigger in each of the sixteen engines:
//
//   - admitted: the batch was admitted against the queries' catalog where it
//     entered (the session parser, the WAL reader), so each engine indexes
//     its dispatch table by the event's ordinal;
//   - by-name: the same batch stamped against another catalog, so each
//     engine resolves the relation name per event, as every engine did
//     before events carried ordinals;
//   - unadmitted: the batch as an embedded caller hands it over, admitted
//     once in the registry and then dispatched by ordinal.
func BenchmarkRegistryFanOut(b *testing.B) {
	other := orderbook.Catalog()
	for _, c := range []struct {
		name  string
		apply func(*Registry, stream.Admitted) error
	}{
		{"admitted", func(r *Registry, batch stream.Admitted) error { return r.ApplyAdmitted(batch) }},
		{"by-name", func(r *Registry, batch stream.Admitted) error {
			return r.ApplyAdmitted(stream.Admitted{Catalog: other, Events: batch.Events})
		}},
		{"unadmitted", func(r *Registry, batch stream.Admitted) error { return r.OnEventBatch(batch.Events) }},
	} {
		b.Run(c.name, func(b *testing.B) { benchmarkFanOut(b, c.apply) })
	}
}

func benchmarkFanOut(b *testing.B, apply func(*Registry, stream.Admitted) error) {
	const batchEvents, batches = 256, 64
	cat := orderbook.Catalog()
	r := NewRegistry(true)
	sink := metrics.New()
	for i, src := range fanout16Queries {
		name := string(rune('a' + i))
		if err := r.Begin(name, src); err != nil {
			b.Fatal(err)
		}
		q, err := Prepare(src, cat)
		if err != nil {
			b.Fatal(err)
		}
		tmp, err := NewToaster(q, runtime.Options{NoMetrics: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Install(name, q, tmp, 0, runtime.Options{Metrics: sink, MetricsLabel: name}); err != nil {
			b.Fatal(err)
		}
	}
	evs := orderbook.NewGenerator(1, 2000).Events(batchEvents * batches)
	reqs := make([]stream.Admitted, batches)
	for i := range reqs {
		reqs[i] = admitAll(b, cat, evs[i*batchEvents:(i+1)*batchEvents])
	}
	for _, req := range reqs { // warm: every map entry born, scratch sized
		if err := apply(r, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if err := apply(r, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// admitAll admits evs against cat the way the server's boundaries do.
func admitAll(tb testing.TB, cat *schema.Catalog, evs []stream.Event) stream.Admitted {
	tb.Helper()
	out := stream.Admitted{Catalog: cat, Events: make([]stream.Event, len(evs))}
	for i, ev := range evs {
		var err error
		if out.Events[i], err = admit(cat, ev); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}
