package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkDef is the part of BENCHMARK.json the tools read.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// suiteFile is what --suite writes: every end-to-end value of every run,
// and one traced run's per-layer values, per workload.
type suiteFile struct {
	Runs     int                             `json:"runs"`
	Seconds  float64                         `json:"seconds"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]map[string]float64   `json:"per_layer"`
}

// childRun re-executes this binary for one run — a fresh process per run,
// as the acceptance driver does it — and parses the report line.
func childRun(common []string, workload string, seed int64, seconds float64, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	cmd := exec.Command(self, append(args, common...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w\n%s", workload, seed, trace, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	return &rep, nil
}

// runSuite runs every workload of the benchmark definition runs times on
// consecutive seeds, then once traced; common are the single-run flags
// (server binary, output and temporary directories) handed to each child.
func runSuite(common []string, benchPath, outPath string, runs int, seed int64, seconds float64) error {
	def, err := readBenchmarkDef(benchPath)
	if err != nil {
		return err
	}
	sf := suiteFile{Runs: runs, Seconds: seconds,
		EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]map[string]float64{}}
	for _, wl := range def.Workloads {
		sf.EndToEnd[wl.Name] = map[string][]float64{}
		for i := 0; i < runs; i++ {
			rep, err := childRun(common, wl.Name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			for n, m := range rep.Metrics {
				sf.EndToEnd[wl.Name][n] = append(sf.EndToEnd[wl.Name][n], m.Value)
			}
			fmt.Fprintf(os.Stderr, "suite: %s run %d/%d done\n", wl.Name, i+1, runs)
		}
		rep, err := childRun(common, wl.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		sf.PerLayer[wl.Name] = map[string]float64{}
		for n, m := range rep.Metrics {
			sf.PerLayer[wl.Name][n] = m.Value
		}
	}
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, b, 0o644); err != nil {
		return err
	}
	printSuite(def, &sf)
	return nil
}

// spread is the interquartile range as a share of the median — the
// acceptance check's steadiness measure.
func spread(xs []float64) (med, share float64) {
	q1, q2, q3 := quartiles(xs)
	return q2, (q3 - q1) / q2
}

func printSuite(def *benchmarkDef, sf *suiteFile) {
	fmt.Printf("%-14s %-26s %14s %9s %7s  %s\n", "workload", "metric", "median", "iqr/med", "bound", "unit")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			med, sh := spread(sf.EndToEnd[wl.Name][m.Name])
			flag := ""
			if m.Name != "setup_s" && sh > m.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
			}
			fmt.Printf("%-14s %-26s %14.4f %8.2f%% %6.0f%%  %s%s\n", wl.Name, m.Name, med, sh*100, m.Bound*100, m.Unit, flag)
		}
	}
	for _, wl := range def.Workloads {
		for _, m := range def.PerLayer {
			fmt.Printf("%-14s %-42s %16.4f  %s\n", wl.Name, m.Name, sf.PerLayer[wl.Name][m.Name], m.Unit)
		}
	}
}

// compareSuites is the A/A check: two suites of the same code must agree
// within the benchmark's own bounds on every end-to-end metric × workload,
// both in run-to-run spread and in how far the second median is worse.
func compareSuites(benchPath, aPath, bPath string) error {
	def, err := readBenchmarkDef(benchPath)
	if err != nil {
		return err
	}
	var a, b suiteFile
	for path, sf := range map[string]*suiteFile{aPath: &a, bPath: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, sf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	misses := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			medA, shA := spread(a.EndToEnd[wl.Name][m.Name])
			medB, shB := spread(b.EndToEnd[wl.Name][m.Name])
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound || (m.Name != "setup_s" && (shA > m.Bound || shB > m.Bound)) {
				flag = "  MISS"
				misses++
			}
			fmt.Printf("%-14s %-26s %14.4f %14.4f %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				wl.Name, m.Name, medA, medB, worse*100, shA*100, shB*100, m.Bound*100, flag)
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d metric × workload pairs miss their bound", misses)
	}
	return nil
}
