package bakeoff

import (
	"bytes"
	"strings"
	"testing"

	"dbtoaster/internal/orderbook"
	"dbtoaster/internal/tpch"
)

func TestRunFinancialBakeoff(t *testing.T) {
	evs := orderbook.NewGenerator(1, 60).Events(400)
	rep, err := Run(Config{
		Name:    "broker activity",
		SQL:     orderbook.QueryBrokerActivity,
		Catalog: orderbook.Catalog(),
		Events:  evs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if !row.ResultOK {
			t.Errorf("engine %s disagrees with reference", row.Engine)
		}
		if row.PerSec <= 0 {
			t.Errorf("engine %s throughput %v", row.Engine, row.PerSec)
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"dbtoaster", "naive-reeval", "first-order-ivm", "tuples/sec"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithSlowCap(t *testing.T) {
	evs := tpch.NewGenerator(2, 1).Workload(300)
	rep, err := Run(Config{
		Name:          "ssb 4.1",
		SQL:           tpch.QuerySSB41,
		Catalog:       tpch.Catalog(),
		Events:        evs,
		MaxEventsSlow: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		switch row.Engine {
		case "dbtoaster":
			if row.Events != len(evs) {
				t.Errorf("dbtoaster events = %d, want %d", row.Events, len(evs))
			}
		default:
			if row.Events != 250 {
				t.Errorf("%s events = %d, want capped 250", row.Engine, row.Events)
			}
			if !row.ResultOK {
				t.Errorf("%s disagrees on capped prefix", row.Engine)
			}
		}
	}
}

func TestRunSelectedEngines(t *testing.T) {
	evs := orderbook.NewGenerator(3, 40).Events(200)
	rep, err := Run(Config{
		Name:    "ablation",
		SQL:     orderbook.QueryBidTurnover,
		Catalog: orderbook.Catalog(),
		Events:  evs,
		Engines: []string{"dbtoaster", "dbtoaster-generic", "dbtoaster-noslice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if !row.ResultOK {
			t.Errorf("%s disagrees", row.Engine)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	_, err := Run(Config{
		Name:    "bad",
		SQL:     orderbook.QueryBidDepth,
		Catalog: orderbook.Catalog(),
		Events:  nil,
		Engines: []string{"mystery"},
	})
	if err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestSweep(t *testing.T) {
	evs := orderbook.NewGenerator(5, 50).Events(600)
	series, err := Sweep(orderbook.QueryBidDepth, orderbook.Catalog(), evs,
		[]string{"dbtoaster", "naive-reeval"}, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	if got := series[0].Points; len(got) != 4 || got[len(got)-1].Events != 600 {
		t.Errorf("dbtoaster points = %+v", got)
	}
	// Slow engine truncated.
	if got := series[1].Points; got[len(got)-1].Events != 200 {
		t.Errorf("naive points = %+v", got)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.SegPerSec <= 0 {
				t.Errorf("%s: non-positive throughput %+v", s.Engine, p)
			}
		}
	}
	var buf bytes.Buffer
	PrintSweep(&buf, series)
	if !strings.Contains(buf.String(), "-- dbtoaster") {
		t.Errorf("sweep print = %q", buf.String())
	}
}

func TestCompileProfile(t *testing.T) {
	p, err := CompileProfile(tpch.QuerySSB41, tpch.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if p.Maps == 0 || p.Triggers == 0 || p.Statements == 0 || p.GeneratedBytes == 0 {
		t.Errorf("profile incomplete: %+v", p)
	}
	// The (mfgr = 'MFGR#1' or mfgr = 'MFGR#2') inclusion–exclusion product
	// pins mfgr to two constants at once; simplification must annihilate
	// it rather than materialise 15 always-empty maps (66 in all).
	if p.Maps > 51 {
		t.Errorf("SSB 4.1 materialises %d maps, want at most 51", p.Maps)
	}
	if p.CompileTime <= 0 || p.CodegenTime <= 0 {
		t.Errorf("timings missing: %+v", p)
	}
	var buf bytes.Buffer
	p.Print(&buf)
	if !strings.Contains(buf.String(), "maps:") {
		t.Errorf("profile print = %q", buf.String())
	}
}
