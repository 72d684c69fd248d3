package compiler

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/ir"
)

// Figure2 renders the paper's Figure 2 for a compiled query: one row per
// (recursion level, event, compiled delta statement), with the maps the
// statement uses and their defining queries. For the paper's
// select sum(A*D) query this reproduces the published table's content.
func Figure2(c *Compiled) string {
	type row struct {
		level int
		event string
		query string
		code  string
		maps  []string
	}
	var rows []row
	for _, t := range c.Program.Triggers {
		for _, s := range t.Stmts {
			target := c.Program.Maps[s.Target]
			used := map[string]bool{}
			collectMapsUsed(s, used)
			var maps []string
			for m := range used {
				maps = append(maps, m)
			}
			sort.Strings(maps)
			rows = append(rows, row{
				level: target.Level + 1, // paper numbers levels from 1
				event: t.Name(),
				query: fmt.Sprintf("%s[%s] := %s", target.Name, strings.Join(target.Keys, ","), target.Definition),
				code:  s.String(),
				maps:  maps,
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].level != rows[j].level {
			return rows[i].level < rows[j].level
		}
		return rows[i].event < rows[j].event
	})

	var b strings.Builder
	fmt.Fprintf(&b, "Recursive compilation of: %s\n\n", c.Program.SQL)
	fmt.Fprintf(&b, "%-6s %-7s %-40s %s\n", "Level", "Event", "Query being maintained", "Code for delta")
	fmt.Fprintln(&b, strings.Repeat("-", 110))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-7s %-40s %s\n", r.level, r.event, truncate(r.query, 40), r.code)
	}
	fmt.Fprintf(&b, "\nMaps (%d total):\n", len(c.Program.Maps))
	for _, name := range c.Program.MapOrder {
		m := c.Program.Maps[name]
		sorted := ""
		if m.Sorted {
			sorted = "  (sorted)"
		}
		fmt.Fprintf(&b, "  %-8s level %d  %s[%s] := %s%s\n",
			name, m.Level, name, strings.Join(m.Keys, ","), m.Definition, sorted)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func collectMapsUsed(s *ir.Stmt, set map[string]bool) {
	for _, lp := range s.Loops {
		set[lp.Map] = true
	}
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.Lookup:
			set[e.Map] = true
			for _, k := range e.Keys {
				walk(k)
			}
		case *ir.Arith:
			walk(e.L)
			walk(e.R)
		case *ir.CmpE:
			walk(e.L)
			walk(e.R)
		}
	}
	walk(s.Delta)
	for _, k := range s.Keys {
		walk(k)
	}
}
