package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/experiment"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// traceReport is what trace prints: per-layer metrics, exact work
// counters, and the traced run's own wall time (to set beside the
// untraced CLI run's, so tracing overhead shows).
type traceReport struct {
	Metrics metrics `json:"metrics"`
	Counts  counts  `json:"counts"`
	TotalS  float64 `json:"total_s"`
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("out", "", "output directory for the traced sweep")
	spansPath := fs.String("spans", "", "write the recorded spans to this file")
	fleetMode := fs.Bool("fleet", false, "run the grid on an in-process coordinator with two workers over loopback HTTP")
	g := registerGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *spansPath == "" {
		return fmt.Errorf("trace needs -out and -spans")
	}
	opts, err := g.options()
	if err != nil {
		return err
	}
	tr := newTracer()
	m := metrics{}
	var (
		mu    sync.Mutex
		walls durations
	)
	root := tr.reserve("run", 0)
	cellDone := func(r core.CellResult) {
		now := time.Now()
		tr.add("core.cell", now.Add(-r.Wall), now, root)
		mu.Lock()
		walls = append(walls, r.Wall)
		mu.Unlock()
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var (
		s     *core.Sweep
		res   *core.SweepResult
		fleet *fleetStats
	)
	if *fleetMode {
		s, res, fleet, err = runFleet(tr, root, m, opts, *out, cellDone)
	} else {
		// No coordinator runs in a local sweep: its request metrics are
		// reported as zero so every workload prints the same names.
		for _, name := range coordMetrics {
			m.set(name.name, 0, name.unit)
		}
		s, res, err = runLocal(opts, *out, cellDone)
	}
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if err := timeFigures(tr, root, m, *out, res); err != nil {
		return err
	}
	end := time.Now()
	tr.finish(root, start, end)

	cells := len(res.Cells)
	m.set("core.allocs_per_cell", float64(after.Mallocs-before.Mallocs)/float64(cells), "count")
	runtime.GC()
	var retained runtime.MemStats
	runtime.ReadMemStats(&retained)
	m.set("core.retained_mb", float64(int64(retained.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "MB")
	m.set("core.cell_p50_ms", ms(walls.quantile(0.5)), "ms")
	m.set("core.cell_p99_ms", ms(walls.quantile(0.99)), "ms")

	if fleet != nil {
		if err := fleet.replay(m, s, filepath.Join(*out, "replay")); err != nil {
			return err
		}
	}
	cnt, err := resultCounts(*out, res)
	if err != nil {
		return err
	}
	probes := tr.reserve("probes", 0)
	probeStart := time.Now()
	if err := layerProbes(tr, probes, m, s, res, cnt, walls.mean()); err != nil {
		return err
	}
	if err := storeProbes(tr, probes, m, res, *out); err != nil {
		return err
	}
	tr.finish(probes, probeStart, time.Now())
	runtime.KeepAlive(res)
	if err := tr.write(*spansPath); err != nil {
		return err
	}
	return writeJSON(traceReport{Metrics: m, Counts: cnt, TotalS: end.Sub(start).Seconds()})
}

// runLocal runs the grid in this process, as ronsim -sweep -out does.
func runLocal(opts []experiment.Option, out string, cellDone func(core.CellResult)) (*core.Sweep, *core.SweepResult, error) {
	opts = append(opts, experiment.Output(out), experiment.Progress(cellDone))
	e, err := experiment.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	s, err := e.Sweep()
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, nil, err
	}
	return s, res, e.WriteManifest(res, out, nil)
}

// timeFigures writes cells/ and merged/ as the CLI does, timing the
// per-group render (analysis.render_ms).
func timeFigures(tr *tracer, root int, m metrics, out string, res *core.SweepResult) error {
	start := time.Now()
	var groups durations
	for gi := range res.Groups {
		g := &res.Groups[gi]
		if !g.Complete() {
			return fmt.Errorf("group %s is incomplete", g.Name())
		}
		t0 := time.Now()
		if err := writeFigures(filepath.Join(out, core.MergedDirName, g.Name()), g.Dataset, g.Merged); err != nil {
			return err
		}
		groups = append(groups, time.Since(t0))
		tr.add("analysis.render", t0, time.Now(), root)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if err := writeFigures(filepath.Join(out, core.CellsDirName, c.Cell.Name()), c.Cell.Dataset, c.Res); err != nil {
			return err
		}
	}
	tr.add("figures", start, time.Now(), root)
	m.set("analysis.render_ms", ms(groups.quantile(0.5)), "ms")
	return nil
}

// resultCounts gathers the exact work counters of a finished grid from
// its results and its output directory.
func resultCounts(out string, res *core.SweepResult) (counts, error) {
	var c counts
	for i := range res.Cells {
		r := res.Cells[i].Res
		if r == nil {
			return c, fmt.Errorf("cell %s has no result", res.Cells[i].Cell.Name())
		}
		c.add(r.RONProbes, r.MeasureProbes, r.RouteChanges, r.Agg)
		st, err := os.Stat(core.CellSnapshotPath(out, res.Cells[i].Cell.Name()))
		if err != nil {
			return c, err
		}
		c.SnapshotBytes += st.Size()
	}
	seg, err := resultstore.ReadSegment(resultstore.SegmentPath(out))
	if err != nil {
		return c, err
	}
	c.StoreRows = int64(len(seg.Unique()))
	return c, nil
}
