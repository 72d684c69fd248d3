package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// thresholdQuery is the uncorrelated VWAP query: a threshold-rewritten
// range sum over a sorted map keyed by price.
const thresholdQuery = "select sum(price * volume) from bids where price > 0.25 * (select sum(volume) from bids)"

// tenthPriceStream inserts and deletes bids at non-dyadic prices
// (multiples of 0.1), whose float sums depend on the order they are added
// in: an answer that depends on update history, not only on the live
// entries, shows up as a last-bit difference.
func tenthPriceStream(seed int64, n int) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	var live []types.Tuple
	var evs []stream.Event
	for len(evs) < n {
		if len(live) > 0 && r.Intn(4) == 0 {
			i := r.Intn(len(live))
			evs = append(evs, stream.Del("bids", live[i]...))
			live = append(live[:i], live[i+1:]...)
			continue
		}
		t := types.Tuple{types.NewFloat(float64(r.Intn(20000)+1) * 0.1), types.NewFloat(float64(r.Intn(9) + 1))}
		evs = append(evs, stream.Ins("bids", t...))
		live = append(live, t)
	}
	return evs
}

// TestThresholdResultSurvivesRestore: a threshold query's answer is a
// function of the map state, so StateSnapshot → StateRestore into a fresh
// engine reproduces Results() bit for bit — and the footprint quotas
// check, sorted map included.
func TestThresholdResultSurvivesRestore(t *testing.T) {
	q, err := Prepare(thresholdQuery, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		live, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range tenthPriceStream(seed, 400) {
			if err := live.OnEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		want, err := live.Results()
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := live.StateSnapshot(&snap, 0); err != nil {
			t.Fatal(err)
		}
		restored, err := NewToaster(q, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restored.StateRestore(&snap); err != nil {
			t.Fatal(err)
		}
		got, err := restored.Results()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("seed %d: restored %v, live %v", seed, got.Rows, want.Rows)
		}
		n, bytes := live.OwnedFootprint()
		if rn, rbytes := restored.OwnedFootprint(); rn != n || rbytes != bytes {
			t.Errorf("seed %d: restored footprint %d entries / %d B, live %d / %d B", seed, rn, rbytes, n, bytes)
		}
	}
}
