// Package orderbook implements the paper's financial demo workload: a
// synthetic NASDAQ TotalView-like stream of limit-order deltas on bid and
// ask books, the standing queries the demo runs over it (VWAP, the SOBI
// trading signal's inputs, and broker/market-maker activity), and a fully
// incremental correlated-VWAP processor built on order-statistic treaps
// (the documented substitution for the paper's nested-aggregate VWAP).
//
// Order books are the paper's motivating example of state with arbitrary
// tuple lifetimes: investors add, modify, and withdraw orders, so the book
// is bounded in practice but cannot be expressed with stream windows.
package orderbook

import (
	"math/rand"

	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// Catalog returns the order-book schema: bids and asks carry an order id,
// the submitting broker, a price, and a volume. Prices are quarter-tick
// floats and volumes are integral floats, so every aggregate in the demo
// queries is exact in float64 (engines agree bit-for-bit).
func Catalog() *schema.Catalog {
	return schema.NewCatalog(
		schema.NewRelation("bids", "id:int", "broker:int", "price:float", "volume:float"),
		schema.NewRelation("asks", "id:int", "broker:int", "price:float", "volume:float"),
	)
}

// Demo queries over the book (for engines built with Catalog()).
const (
	// QueryVWAPThreshold is the uncorrelated VWAP variant: turnover of
	// bids priced above a fraction of total bid volume. Compiles to a
	// threshold-rewritten sorted map: O(1) per delta to a live price level
	// (O(log n) when a level is born or dies), and per read a range sum
	// over the k levels above the threshold (O(log n + k)).
	QueryVWAPThreshold = `select sum(price * volume) from bids
		where price > 0.25 * (select sum(volume) from bids)`

	// QueryBidTurnover and QueryBidDepth are the SOBI signal's bid-side
	// inputs (the ask side swaps the relation): their ratio is the
	// volume-weighted average price of the side.
	QueryBidTurnover = `select sum(price * volume) from bids`
	QueryBidDepth    = `select sum(volume) from bids`

	// QuerySOBIInputs maintains both sides' turnover and depth in one
	// statement pair per side; the example application derives the SOBI
	// imbalance signal from the four numbers.
	QueryAskTurnover = `select sum(price * volume) from asks`
	QueryAskDepth    = `select sum(volume) from asks`

	// QueryBrokerActivity supports the demo's market-maker detection:
	// per-broker order count and resting volume on the bid book. Market
	// makers show high order counts with balanced volume.
	QueryBrokerActivity = `select broker, count(*), sum(volume) from bids group by broker`

	// QueryBrokerVolumeByside is the two-sided variant used to detect
	// balanced (market-making) positions.
	QueryBrokerNetBid = `select broker, sum(volume) from bids group by broker`
	QueryBrokerNetAsk = `select broker, sum(volume) from asks group by broker`

	// QueryBrokerAvgPrice maintains each broker's average resting bid
	// price: an AVG aggregate, compiled as a sum/count component pair and
	// NULL once a broker's book empties.
	QueryBrokerAvgPrice = `select broker, avg(price) from bids group by broker`

	// QueryTwoSidedVolume is the market-maker screen: bid volume resting
	// with brokers that simultaneously quote the ask side. The correlated
	// EXISTS decorrelates into a per-broker witness-count map over asks.
	QueryTwoSidedVolume = `select sum(volume) from bids
		where exists (select * from asks where asks.broker = bids.broker)`

	// QueryBidAskSpreadCover pairs each resting bid with same-broker ask
	// coverage through a LEFT OUTER JOIN: total bid volume counts every
	// order, while count(asks.id) counts only bids whose broker also has
	// resting asks — unmatched bids survive through the antijoin term.
	QueryBidAskSpreadCover = `select sum(bids.volume), count(asks.id)
		from bids left outer join asks on bids.broker = asks.broker`
)

// Order is one resting limit order.
type Order struct {
	ID     int64
	Broker int64
	Price  float64 // quarter ticks
	Volume float64 // integral
}

// Tuple renders the order as a relation tuple.
func (o Order) Tuple() types.Tuple {
	return types.Tuple{
		types.NewInt(o.ID),
		types.NewInt(o.Broker),
		types.NewFloat(o.Price),
		types.NewFloat(o.Volume),
	}
}

// Generator produces a deterministic synthetic order-delta stream: new
// orders arrive around a random-walking mid price, resting orders are
// cancelled or modified, and the book stays bounded — the self-managing
// state pattern the paper describes.
type Generator struct {
	rng     *rand.Rand
	nextID  int64
	mid     float64 // in quarter ticks
	brokers int64
	maxLive int
	live    map[string][]Order // per side
}

// NewGenerator seeds a generator; maxLive bounds each book's resting
// orders (the book's natural size).
func NewGenerator(seed int64, maxLive int) *Generator {
	return &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		mid:     400, // 100.00 in quarter ticks
		brokers: 20,
		maxLive: maxLive,
		live:    map[string][]Order{"bids": {}, "asks": {}},
	}
}

// Next produces the next batch of events (1 for add/cancel, 2 for a
// modify, which is a delete/insert pair).
func (g *Generator) Next() []stream.Event {
	// Random-walk the mid price in whole ticks.
	g.mid += float64(g.rng.Intn(3) - 1)
	if g.mid < 40 {
		g.mid = 40
	}
	side := "bids"
	if g.rng.Intn(2) == 0 {
		side = "asks"
	}
	book := g.live[side]
	action := g.rng.Intn(10)
	bookFull := len(book) >= g.maxLive
	switch {
	case len(book) > 0 && (bookFull || action < 3):
		idx := g.rng.Intn(len(book))
		o := book[idx]
		g.live[side] = append(book[:idx], book[idx+1:]...)
		if !bookFull && action < 1 {
			// Modify: withdraw and resubmit with a new volume.
			o2 := o
			o2.Volume = float64(1 + g.rng.Intn(50))
			g.live[side] = append(g.live[side], o2)
			return []stream.Event{
				{Op: stream.Delete, Relation: side, Args: o.Tuple()},
				{Op: stream.Insert, Relation: side, Args: o2.Tuple()},
			}
		}
		return []stream.Event{{Op: stream.Delete, Relation: side, Args: o.Tuple()}}
	default:
		g.nextID++
		spread := float64(g.rng.Intn(20)) // quarter ticks from mid
		price := g.mid + spread
		if side == "bids" {
			price = g.mid - spread
		}
		if price < 1 {
			price = 1
		}
		o := Order{
			ID:     g.nextID,
			Broker: int64(g.rng.Intn(int(g.brokers))),
			Price:  price * 0.25,
			Volume: float64(1 + g.rng.Intn(50)),
		}
		g.live[side] = append(g.live[side], o)
		return []stream.Event{{Op: stream.Insert, Relation: side, Args: o.Tuple()}}
	}
}

// Events generates a flat stream of n events (batches may overshoot by 1).
func (g *Generator) Events(n int) []stream.Event {
	out := make([]stream.Event, 0, n+1)
	for len(out) < n {
		out = append(out, g.Next()...)
	}
	return out
}

// BookSizes reports the current number of resting orders per side.
func (g *Generator) BookSizes() (bids, asks int) {
	return len(g.live["bids"]), len(g.live["asks"])
}
