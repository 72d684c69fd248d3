package runtime

import (
	"math/rand"
	"testing"

	"dbtoaster/internal/algebra"
	"dbtoaster/internal/store"
	"dbtoaster/internal/types"
)

// sqlConstructQueries covers the widened SQL surface end to end: AVG,
// EXISTS/IN (correlated and not, negated and not), and LEFT OUTER JOIN,
// alone and combined.
var sqlConstructQueries = []string{
	// AVG: sum/count pair, NULL on empty groups.
	"select avg(A) from R",
	"select avg(A*B) from R where B > 2",
	"select B, avg(A) from R group by B",
	// EXISTS / NOT EXISTS, correlated and uncorrelated.
	"select sum(B) from R where exists (select * from S where S.B = R.A)",
	"select sum(A) from R where not exists (select * from S where S.B = R.B)",
	"select sum(A) from R where exists (select * from S where S.C > 5)",
	"select B, sum(A) from R where exists (select * from S where S.B = R.B) group by B",
	// IN / NOT IN over subqueries.
	"select sum(A) from R where B in (select B from S)",
	"select sum(A) from R where A not in (select C from S where S.B = R.B)",
	"select count(*) from R where B in (select C from T where T.D = R.A)",
	// LEFT OUTER JOIN: inner plus antijoin correction.
	"select sum(R.A) from R left outer join S on R.B = S.B",
	"select sum(S.C) from R left outer join S on R.B = S.B",
	"select count(S.C) from R left outer join S on R.B = S.B",
	"select R.B, avg(S.C) from R left outer join S on R.B = S.B group by R.B",
	"select sum(A) from R left outer join S on R.B = S.B left outer join T on S.C = T.C",
	"select sum(R.A + T.D) from R join S on R.B = S.B left outer join T on S.C = T.C",
	// Combinations.
	"select sum(A) from R left outer join S on R.B = S.B where exists (select * from T where T.C = S.C)",
	// Correlation must be by equality: the witness-count map is keyed by
	// the correlated variables, and only equality predicates let subquery
	// events derive those keys (inequality correlation is a compile error).
	"select avg(A) from R where B in (select B from S where S.C = R.A)",
	"select sum(A) from R where exists (select * from S where S.B = R.B and S.C > 2)",
}

// constructEvents builds a deterministic random event stream over small
// domains so deletes hit live tuples and EXISTS witnesses flip on and off.
func constructEvents(seed int64, n int) []evt {
	r := rand.New(rand.NewSource(seed))
	var history, out []evt
	for i := 0; i < n; i++ {
		if len(history) > 0 && r.Intn(3) == 0 {
			j := r.Intn(len(history))
			out = append(out, evt{rel: history[j].rel, insert: false, vals: history[j].vals})
			history = append(history[:j], history[j+1:]...)
			continue
		}
		rel := []string{"R", "S", "T"}[r.Intn(3)]
		e := evt{rel: rel, insert: true, vals: []int64{int64(r.Intn(6)), int64(r.Intn(6))}}
		history = append(history, e)
		out = append(out, e)
	}
	return out
}

// TestSQLConstructInvariants checks, for every widened-surface query and
// after every event, that every maintained map equals its defining term
// evaluated over the base state — across typed and untyped-storage
// engines.
func TestSQLConstructInvariants(t *testing.T) {
	events := constructEvents(11, 60)
	for _, src := range sqlConstructQueries {
		src := src
		t.Run(src, func(t *testing.T) {
			cat := rstCatalog()
			c := compileSQL(t, cat, src)
			for _, opts := range []Options{{}, {NoSliceIndex: true}} {
				eng, err := NewEngine(c.Program, opts)
				if err != nil {
					t.Fatalf("opts %+v: %v", opts, err)
				}
				db := store.New(cat)
				for i, e := range events {
					feed(t, eng, db, []evt{e})
					for name, decl := range c.Program.Maps {
						want, err := algebra.Eval(db, decl.Definition.Body, decl.Definition.GroupVars, algebra.Env{})
						if err != nil {
							t.Fatal(err)
						}
						got := map[types.Key]float64{}
						eng.Map(name).Scan(func(tp types.Tuple, v float64) {
							got[types.EncodeKey(tp)] = v
						})
						if len(got) != len(want) {
							t.Fatalf("opts %+v event %d map %s: %d entries, oracle %d\nmap: %v\noracle: %v",
								opts, i, name, len(got), len(want), got, want)
						}
						for k, v := range want {
							if got[k] != v {
								t.Fatalf("opts %+v event %d map %s key %v: %v, oracle %v",
									opts, i, name, types.DecodeKey(k), got[k], v)
							}
						}
					}
				}
			}
		})
	}
}
