// Command dbtbench is the repo's end-to-end benchmark: it drives a stock
// dbtserver subprocess over loopback through the public server.Client,
// checks every answer against an in-process reference, and reports the
// metrics BENCHMARK.json names. See README.md.
//
//	dbtbench --workload fin_b1 --seed 1 --seconds 6 --trace 0   one run
//	dbtbench --suite a.json --runs 10                           every workload, repeated
//	dbtbench --compare a.json b.json                            two suites against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo records what was measured, on what.
type runInfo struct {
	Workload      string  `json:"workload"`
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	Conns         int     `json:"conns"`
	Batch         int     `json:"batch"`
	EventsPerConn int     `json:"events_per_conn"`
	WarmupPerConn int     `json:"warmup_per_conn"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "input seed: the same seed gives the same events")
		seconds      = flag.Float64("seconds", 6, "run length; each workload's frozen event rate times this is its event count")
		trace        = flag.Int("trace", 0, "0 = end-to-end metrics on a dbtserver subprocess, 1 = per-layer metrics from the traced in-process run")
		serverBin    = flag.String("server-bin", "", "dbtserver binary to measure (built by run.sh)")
		outDir       = flag.String("out", "bench/out", "directory for run records and trace artefacts")
		tmpDir       = flag.String("tmp", "", "directory for WAL directories (default $TMPDIR)")
		suite        = flag.String("suite", "", "run every workload --runs times (seeds seed, seed+1, ...) plus one traced run each, and write medians and quartiles to this file")
		runs         = flag.Int("runs", 10, "runs per workload in --suite")
		compare      = flag.Bool("compare", false, "compare two --suite files (arguments) against the bounds in --benchmark")
		benchJSON    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition, for --suite and --compare")
	)
	flag.Parse()
	// The box has two cores; both this process and the server it spawns
	// are held to that, wherever the benchmark runs later.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare needs two suite files")
			break
		}
		err = compareSuites(*benchJSON, flag.Arg(0), flag.Arg(1))
	case *suite != "":
		common := []string{"--server-bin=" + *serverBin, "--out=" + *outDir, "--tmp=" + *tmpDir}
		err = runSuite(common, *benchJSON, *suite, *runs, *seed, *seconds)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, *serverBin, *outDir, *tmpDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runOne is the contract's single run: it prints every metric by name and
// unit, then the report as the last line, and fails on a wrong answer or a
// failed operation.
func runOne(name string, seed int64, seconds float64, trace bool, serverBin, outDir, tmpDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	tmpRoot, err := os.MkdirTemp(tmpDir, "dbtbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)
	cfg := &runConfig{w: w, seed: seed, seconds: seconds, scale: 1, tmpRoot: tmpRoot, oracleEvents: naivePrefix, maxTailCycles: maxTailCycles, dropRefEvent: -1}
	info := runInfo{
		Workload: w.name, Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Trace: trace, Conns: w.conns, Batch: w.batch,
		EventsPerConn: cfg.eventsPerConn(), WarmupPerConn: cfg.warmupPerConn(),
	}
	infoJSON, _ := json.Marshal(info) // plain struct of scalars
	fmt.Printf("info %s\n", infoJSON)

	rep := report{Correct: true, Attempted: 1}
	var detail *e2eResult
	if trace {
		if rep.Metrics, err = runTraced(cfg, info, outDir); err != nil {
			return err
		}
	} else {
		if serverBin == "" {
			return fmt.Errorf("--server-bin is required for an end-to-end run (use bench/run.sh)")
		}
		res, err := runEndToEnd(cfg, func() host { return &procHost{bin: serverBin, w: w} })
		if err != nil {
			return err
		}
		detail = res
		rep = report{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: endToEndMetrics(cfg, res)}
		fmt.Printf("samples acks=%d (%d beyond p95) reads=%d setups=%d recoveries=%d registers=%d cpu_intervals=%d\n",
			res.Requests, samplesBeyond(res.Requests, 0.95), len(res.readNs),
			len(res.SetupS), len(res.RecoverS), len(res.RegisterMs), len(res.CPUSPerMevent))
		fmt.Printf("ingest wall_s=%.3f server_cpu_s=%.3f harness_cpu_s=%.3f read_late_ms_p99=%.3f checkpoint_ms=%.3f\n",
			res.IngestWallS, res.ServerCPUS, res.HarnessCPUS, res.ReadLateMsP99, res.CheckpointMs)
		ack, read := sortedCopy(nsToFloat(flatten(res.ackNs))), sortedCopy(nsToFloat(res.readNs))
		fmt.Printf("tails_us ack_p90=%.1f ack_p95=%.1f ack_p99=%.1f read_p90=%.1f read_p95=%.1f read_p99=%.1f\n",
			percentile(ack, 0.90)/1e3, percentile(ack, 0.95)/1e3, percentile(ack, 0.99)/1e3,
			percentile(read, 0.90)/1e3, percentile(read, 0.95)/1e3, percentile(read, 0.99)/1e3)
		for _, m := range res.Mismatch {
			fmt.Printf("MISMATCH %s\n", m)
		}
		if res.FirstErr != "" {
			fmt.Printf("FAILED %d of %d operations, first: %s\n", res.Failed, res.Attempted, res.FirstErr)
		}
	}

	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %16.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("a metric has no value: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if trace {
		mode = "layers"
	}
	record, err := json.MarshalIndent(struct {
		Info   runInfo    `json:"info"`
		Report report     `json:"report"`
		Detail *e2eResult `json:"detail,omitempty"`
	}{info, rep, detail}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s.%s.json", w.name, mode)), record, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		return fmt.Errorf("%s: correctness gate failed (correct=%t, failed=%d of %d)", w.name, rep.Correct, rep.Failed, rep.Attempted)
	}
	return nil
}
