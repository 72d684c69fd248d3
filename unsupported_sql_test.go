package dbtoaster_test

import (
	"strings"
	"testing"

	"dbtoaster"
	"dbtoaster/internal/bakeoff"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/server"
)

// unsupportedStatements sweeps the SQL surface's documented edges: every
// entry must produce a structured error naming the offending clause —
// never a panic — from each user-facing compile path (the embedded
// dbtoaster facade, the dbtserver constructor, and the bakeoff profiler).
var unsupportedStatements = []struct {
	name, sql, wantErr string
}{
	{"right join",
		"select sum(A) from R right join S on R.B = S.B",
		"RIGHT OUTER JOIN is not supported"},
	{"full join",
		"select sum(A) from R full outer join S on R.B = S.B",
		"FULL OUTER JOIN is not supported"},
	{"order by",
		"select sum(A) from R order by A",
		"ORDER is not supported for standing queries"},
	{"distinct",
		"select distinct B from R",
		"DISTINCT is not supported for standing queries"},
	{"star outside exists",
		"select * from R",
		"SELECT * is only supported inside EXISTS subqueries"},
	{"exists in select list",
		"select exists (select * from S) from R",
		"only supported in WHERE, not in the SELECT list"},
	{"in predicate in select list",
		"select A in (select B from S) from R",
		"only supported in WHERE, not in the SELECT list"},
	{"exists in having",
		"select B, sum(A) from R group by B having exists (select * from S)",
		"only supported in WHERE, not in HAVING"},
	{"exists over a join",
		"select sum(A) from R where exists (select * from S, T where S.C = T.C)",
		"EXISTS subquery supports exactly one FROM relation"},
	{"exists with group by",
		"select sum(A) from R where exists (select B from S group by B)",
		"GROUP BY is not supported in an EXISTS subquery"},
	{"nested exists",
		"select sum(A) from R where exists (select * from S where exists (select * from T))",
		"nested subqueries inside an EXISTS subquery are not supported"},
	{"in with two items",
		"select sum(A) from R where B in (select B, C from S)",
		"IN subquery must project exactly one item"},
	{"empty in list",
		"select sum(A) from R where B in ()",
		"empty IN value list"},
	{"group by on nullable side",
		"select S.C, sum(R.A) from R left outer join S on R.B = S.B group by S.C",
		"nullable side of a LEFT OUTER JOIN"},
	{"min over left join",
		"select min(S.C) from R left outer join S on R.B = S.B",
		"MIN with LEFT OUTER JOIN is not supported"},
	{"on references later table",
		"select sum(A) from R join S on S.C = T.C, T",
		"not among the tables joined so far"},
	{"subquery in on condition",
		"select sum(A) from R join S on exists (select * from T)",
		"subqueries are not allowed in ON conditions"},
	{"correlated scalar subquery",
		"select sum(A) from R where A > (select sum(C) from S where S.B = R.B)",
		"correlated subqueries are not supported"},
	{"inequality-correlated subquery",
		"select sum(A) from R where B in (select B from S where S.C > R.A)",
		"is not derivable"},
}

// compilePaths are the user-facing entry points every statement is swept
// through: dbtoaster's embedded Compile, dbtserver's constructor, and the
// bakeoff's compile profiler.
func compilePaths(cat *schema.Catalog, pub *dbtoaster.Catalog) map[string]func(string) error {
	return map[string]func(string) error{
		"dbtoaster": func(src string) error {
			_, err := dbtoaster.Compile(src, pub)
			return err
		},
		"dbtserver": func(src string) error {
			_, err := server.New(src, cat)
			return err
		},
		"bakeoff": func(src string) error {
			_, err := bakeoff.CompileProfile(src, cat)
			return err
		},
	}
}

func TestUnsupportedSQLStructuredErrors(t *testing.T) {
	cat := schema.NewCatalog(
		schema.NewRelation("R", "A:int", "B:int"),
		schema.NewRelation("S", "B:int", "C:int"),
		schema.NewRelation("T", "C:int", "D:int"),
	)
	pub := dbtoaster.NewCatalog(
		dbtoaster.NewRelation("R", "A:int", "B:int"),
		dbtoaster.NewRelation("S", "B:int", "C:int"),
		dbtoaster.NewRelation("T", "C:int", "D:int"),
	)
	paths := compilePaths(cat, pub)
	for _, tc := range unsupportedStatements {
		for pathName, compile := range paths {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s/%s: panicked: %v", tc.name, pathName, r)
					}
				}()
				return compile(tc.sql)
			}()
			if err == nil {
				t.Errorf("%s/%s: %q compiled, want error containing %q", tc.name, pathName, tc.sql, tc.wantErr)
				continue
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s/%s: error %q does not name the offending clause (want %q)", tc.name, pathName, err, tc.wantErr)
			}
		}
	}
}
