package bakeoff

import (
	"fmt"
	"io"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
)

// SweepPoint is one checkpoint of a throughput series: cumulative events
// processed, cumulative elapsed time, instantaneous throughput over the
// last segment, and state size.
type SweepPoint struct {
	Events    int
	Elapsed   time.Duration
	SegPerSec float64
	Entries   int
}

// SweepSeries is one engine's series.
type SweepSeries struct {
	Engine string
	Points []SweepPoint
}

// Sweep measures throughput as a function of stream position for each
// engine: the data behind the demo visualizer's performance-over-time
// plot. Slow engines receive a truncated stream (maxSlow events).
func Sweep(sqlText string, cat *schema.Catalog, events []stream.Event, engines []string, checkpoints int, maxSlow int) ([]SweepSeries, error) {
	if checkpoints < 1 {
		checkpoints = 1
	}
	q, err := engine.Prepare(sqlText, cat)
	if err != nil {
		return nil, err
	}
	var out []SweepSeries
	for _, name := range engines {
		e, err := buildEngine(name, q, runtime.Options{})
		if err != nil {
			return nil, err
		}
		evs := events
		if slowEngine(name) && maxSlow > 0 && maxSlow < len(evs) {
			evs = evs[:maxSlow]
		}
		step := len(evs) / checkpoints
		if step < 1 {
			step = 1
		}
		series := SweepSeries{Engine: name}
		var elapsed time.Duration
		for start := 0; start < len(evs); start += step {
			end := start + step
			if end > len(evs) {
				end = len(evs)
			}
			t0 := time.Now()
			for _, ev := range evs[start:end] {
				if err := e.OnEvent(ev); err != nil {
					return nil, fmt.Errorf("sweep %s: %w", name, err)
				}
			}
			seg := time.Since(t0)
			elapsed += seg
			perSec := float64(end-start) / seg.Seconds()
			series.Points = append(series.Points, SweepPoint{
				Events:    end,
				Elapsed:   elapsed,
				SegPerSec: perSec,
				Entries:   e.MemEntries(),
			})
		}
		out = append(out, series)
	}
	return out, nil
}

// PrintSweep renders the series as aligned columns, one block per engine.
func PrintSweep(w io.Writer, series []SweepSeries) {
	for _, s := range series {
		fmt.Fprintf(w, "-- %s\n%10s %12s %14s %10s\n", s.Engine, "events", "elapsed", "tuples/sec", "entries")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%10d %12s %14.0f %10d\n",
				p.Events, p.Elapsed.Round(time.Microsecond), p.SegPerSec, p.Entries)
		}
	}
}
