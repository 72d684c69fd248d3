// Command dbtserver runs DBToaster in standalone mode: a compiled standing
// query served over a line-oriented TCP protocol (INSERT/DELETE/RESULT/
// PROGRAM/STATS/METRICS/QUIT; see internal/server for the protocol
// details). With -metrics-addr it also serves live counters and latency
// histograms over HTTP (Prometheus text format, expvar, pprof).
//
// Usage:
//
//	dbtserver -name brokers -addr 127.0.0.1:7077
//	dbtserver -name rst -metrics-addr 127.0.0.1:9090
//	dbtserver -catalog tpch -sql 'select sum(lo.revenue) from lineorder lo, dates d where lo.orderdate = d.datekey' -addr :7077
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"dbtoaster/internal/cli"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/metrics"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/server"
)

func main() {
	var (
		name        = flag.String("name", "", "named demo query: "+strings.Join(cli.NamedQueries(), ", "))
		sqlText     = flag.String("sql", "", "SQL query text")
		catName     = flag.String("catalog", "", "built-in catalog: rst, orderbook, tpch")
		tables      = flag.String("tables", "", "semicolon-separated table specs")
		addr        = flag.String("addr", "127.0.0.1:7077", "listen address")
		shards      = flag.Int("shards", 0, "run queries on the sharded runtime with this many shard workers (0 = single-threaded)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json, /trace.json, /debug/vars, and /debug/pprof on this address (empty = no HTTP endpoint)")
		noMetrics   = flag.Bool("no-metrics", false, "disable instrumentation entirely (METRICS returns ERR)")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory: log every delta and support CHECKPOINT (empty = no durability)")
		recover     = flag.Bool("recover", false, "rebuild state from -wal-dir at startup (newest valid checkpoint plus log tail)")
		walSync     = flag.Bool("wal-sync", false, "fsync the WAL on every append (default: checkpoint cadence bounds loss)")
		ckptEvery   = flag.Uint64("checkpoint-every", 0, "take an automatic checkpoint after this many events (0 = only explicit CHECKPOINT)")

		quotaEntries = flag.Int("quota-entries", 0, "quarantine a query whose owned maps exceed this many entries (0 = unlimited)")
		quotaBytes   = flag.Uint64("quota-bytes", 0, "quarantine a query whose owned maps exceed this many approximate bytes (0 = unlimited)")
		quotaBudget  = flag.Duration("quota-trigger-budget", 0, "per-event trigger time budget; repeated breaches quarantine the query (0 = unlimited)")
		quotaStrikes = flag.Int("quota-breaches", 0, "consecutive trigger-budget breaches before quarantine (0 = default 3)")
		maxConns     = flag.Int("max-conns", 0, "cap concurrent connections; excess get one ERR line and are closed (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections idle past this duration (0 = never)")
		maxPending   = flag.Int("max-pending", 0, "shed ingest requests once this many events queue for the next commit group (0 = unbounded)")
	)
	flag.Parse()

	var (
		src string
		cat *schema.Catalog
	)
	switch {
	case *name != "":
		var ok bool
		src, cat, ok = cli.NamedQuery(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "dbtserver: unknown query %q\n", *name)
			os.Exit(1)
		}
	case *sqlText != "" && *tables != "":
		var err error
		cat, err = cli.ParseTables(strings.Split(*tables, ";"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtserver:", err)
			os.Exit(1)
		}
		src = *sqlText
	case *sqlText != "" && *catName != "":
		var ok bool
		cat, ok = cli.BuiltinCatalog(*catName)
		if !ok {
			fmt.Fprintf(os.Stderr, "dbtserver: unknown catalog %q\n", *catName)
			os.Exit(1)
		}
		src = *sqlText
	default:
		fmt.Fprintln(os.Stderr, "dbtserver: need -name, or -sql with -catalog/-tables")
		os.Exit(1)
	}

	if *noMetrics && *metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "dbtserver: -metrics-addr requires metrics (drop -no-metrics)")
		os.Exit(1)
	}
	if *recover && *walDir == "" {
		fmt.Fprintln(os.Stderr, "dbtserver: -recover requires -wal-dir")
		os.Exit(1)
	}
	s, err := server.NewWithOptions(src, cat, server.Options{
		Shards:          *shards,
		NoMetrics:       *noMetrics,
		WALDir:          *walDir,
		Recover:         *recover,
		WALSync:         *walSync,
		CheckpointEvery: *ckptEvery,
		Quota: engine.Quota{
			MaxEntries:     *quotaEntries,
			MaxBytes:       *quotaBytes,
			TriggerBudget:  *quotaBudget,
			BudgetBreaches: *quotaStrikes,
		},
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
		MaxPending:  *maxPending,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtserver:", err)
		os.Exit(1)
	}
	if info, replayErrs := s.Recovery(); info != nil {
		fmt.Printf("dbtserver: recovered from checkpoint generation %d (watermark %d), replayed %d records", info.CheckpointGen, info.Watermark, info.Replayed)
		if info.SkippedCheckpoints > 0 || info.TruncatedBytes > 0 || replayErrs > 0 {
			fmt.Printf(" (skipped %d corrupt checkpoints, truncated %d torn bytes, %d replay rejections)",
				info.SkippedCheckpoints, info.TruncatedBytes, replayErrs)
		}
		fmt.Println()
	}
	bound, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtserver:", err)
		os.Exit(1)
	}
	if *shards > 1 {
		fmt.Printf("dbtserver: serving %q on %s (%d shards)\n", src, bound, *shards)
	} else {
		fmt.Printf("dbtserver: serving %q on %s\n", src, bound)
	}
	if *metricsAddr != "" {
		h, err := metrics.Serve(*metricsAddr, s.Sink())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtserver:", err)
			os.Exit(1)
		}
		defer h.Close()
		fmt.Printf("dbtserver: metrics on http://%s/metrics\n", h.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("dbtserver: shutting down")
	s.Close()
}
