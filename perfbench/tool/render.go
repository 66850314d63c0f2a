package main

import (
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
)

// writeFigures renders a result's tables and figure series into dir
// under the file names cmd/ronsim gives them, so a traced run's merged/
// tree can be compared byte for byte with the CLI's.
func writeFigures(dir string, d core.Dataset, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, strings.ToLower(d.String())+"-"+name), []byte(content), 0o644)
	}
	names := res.Agg.Methods()
	f4names, f4cdfs := res.Figure4()
	files := []struct {
		name    string
		content func() string
		skip    bool
	}{
		{"fig2.dat", func() string {
			return analysis.RenderCDF("per-path loss % CDF", res.Figure2(50).Grid(0, 7, 100))
		}, false},
		{"fig3.dat", func() string {
			return analysis.RenderCDFOverlay("20-min loss CDF", 0, 1, 101, names, res.Figure3())
		}, false},
		{"fig4.dat", func() string {
			return analysis.RenderCDFOverlay("per-path CLP CDF", 0, 100, 101, f4names, f4cdfs)
		}, len(f4cdfs) == 0},
		{"fig5.dat", func() string {
			return analysis.RenderCDFOverlay("latency CDF (>50ms paths)", 0, 300, 121, names, res.Figure5())
		}, false},
		{"table5.txt", func() string {
			return analysis.RenderTable5(res.Table5Rows(), res.LatencyLabel())
		}, false},
		{"table6.txt", func() string { return analysis.RenderTable6(res.Agg.HighLossHours()) }, false},
		{"workload.txt", func() string {
			return analysis.RenderWorkloadTable(res.Agg.Workload().Table())
		}, res.Agg.Workload() == nil || !res.Agg.Workload().HasData()},
		{"resilience.txt", func() string {
			return analysis.RenderResilienceTable(res.Agg.Resilience().Table())
		}, res.Agg.Resilience() == nil || !res.Agg.Resilience().HasData()},
	}
	for _, f := range files {
		if f.skip {
			continue
		}
		if err := write(f.name, f.content()); err != nil {
			return err
		}
	}
	return nil
}
