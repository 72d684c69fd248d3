// Command bakeoff runs the paper's DBMS bakeoff (Section 4.2): the
// financial order-book application and the warehouse-loading application,
// each driven through the compiled engine and the two baselines, printing
// per-engine tuple throughput, memory, and result agreement, plus the
// compiler profile — the textual content of the demo's performance
// visualizer.
//
// Usage:
//
//	bakeoff                      # both application scenarios, default sizes
//	bakeoff -events 50000        # bigger stream for the compiled engine
//	bakeoff -scenario financial  # just the order-book queries
package main

import (
	"flag"
	"fmt"
	"os"

	"dbtoaster/internal/bakeoff"
	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/tpch"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "financial | warehouse | all")
		events   = flag.Int("events", 20000, "events fed to the compiled engine")
		slowCap  = flag.Int("slowcap", 2000, "event cap for the per-event-reevaluation baselines")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		ablation = flag.Bool("ablation", false, "also run the no-slice and generic-storage ablations")
		sweep    = flag.Bool("sweep", false, "also print throughput-vs-stream-position series")
		batch    = flag.Int("batch", 0, "feed engines in OnEventBatch chunks of this size (0 = per-event)")
		metrics  = flag.String("metrics-out", "", "instrument the dbtoaster contenders and keep writing steady-state metrics snapshots to this JSON file (e.g. BENCH_metrics.json)")
		walDir   = flag.String("wal-dir", "", "add the dbtoaster-wal contender (compiled engine with write-ahead logging), keeping its scratch logs under this directory")
	)
	flag.Parse()

	type job struct {
		name    string
		sql     string
		catalog *schema.Catalog
		events  []stream.Event
	}
	var jobs []job
	if *scenario == "financial" || *scenario == "all" {
		evs := orderbook.NewGenerator(*seed, 500).Events(*events)
		jobs = append(jobs,
			job{"financial / VWAP threshold", orderbook.QueryVWAPThreshold, orderbook.Catalog(), evs},
			job{"financial / bid turnover", orderbook.QueryBidTurnover, orderbook.Catalog(), evs},
			job{"financial / broker activity", orderbook.QueryBrokerActivity, orderbook.Catalog(), evs},
			job{"financial / broker avg price (AVG)", orderbook.QueryBrokerAvgPrice, orderbook.Catalog(), evs},
			job{"financial / two-sided volume (EXISTS)", orderbook.QueryTwoSidedVolume, orderbook.Catalog(), evs},
			job{"financial / bid-ask coverage (LOJ)", orderbook.QueryBidAskSpreadCover, orderbook.Catalog(), evs},
		)
	}
	if *scenario == "warehouse" || *scenario == "all" {
		evs := tpch.NewGenerator(*seed, 2).Workload(*events)
		jobs = append(jobs,
			job{"warehouse / SSB 4.1", tpch.QuerySSB41, tpch.Catalog(), evs},
			job{"warehouse / SSB 1.1", tpch.QuerySSB11, tpch.Catalog(), evs},
			job{"warehouse / load monitor", tpch.QueryLoadMonitor, tpch.Catalog(), evs},
			job{"warehouse / dimension coverage (LOJ)", tpch.QueryDimCoverage, tpch.Catalog(), evs},
		)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "bakeoff: unknown scenario (financial | warehouse | all)")
		os.Exit(1)
	}

	engines := []string{"dbtoaster", "naive-reeval", "first-order-ivm"}
	if *ablation {
		engines = append(engines, "dbtoaster-noslice", "dbtoaster-generic")
	}
	if *walDir != "" {
		engines = append(engines, "dbtoaster-wal")
	}
	for _, j := range jobs {
		rep, err := bakeoff.Run(bakeoff.Config{
			Name:          j.name,
			SQL:           j.sql,
			Catalog:       j.catalog,
			Events:        j.events,
			Engines:       engines,
			MaxEventsSlow: *slowCap,
			Batch:         *batch,
			MetricsOut:    *metrics,
			WALDir:        *walDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakeoff:", err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
		p, err := bakeoff.CompileProfile(j.sql, j.catalog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakeoff:", err)
			os.Exit(1)
		}
		p.Print(os.Stdout)
		if *sweep {
			series, err := bakeoff.Sweep(j.sql, j.catalog, j.events, engines, 8, *slowCap)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakeoff:", err)
				os.Exit(1)
			}
			bakeoff.PrintSweep(os.Stdout, series)
		}
		fmt.Println()
	}
}
