package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// counts are the work counters that depend only on the grid and its
// seed, never on timing; run.py requires them to repeat exactly.
type counts struct {
	Cells         int64 `json:"cells"`
	RONProbes     int64 `json:"ron_probes"`
	MeasureProbes int64 `json:"measure_probes"`
	RouteChanges  int64 `json:"route_changes"`
	WLFrames      int64 `json:"wl_frames"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	StoreRows     int64 `json:"store_rows"`
}

// add folds one cell's counters in.
func (c *counts) add(ron, measure, changes int64, agg *analysis.Aggregator) {
	c.Cells++
	c.RONProbes += ron
	c.MeasureProbes += measure
	c.RouteChanges += changes
	c.WLFrames += framesSent(agg)
}

// framesSent is the number of application frames a cell emitted (one
// k-disjoint path query each).
func framesSent(agg *analysis.Aggregator) int64 {
	if ws := agg.Workload(); ws != nil {
		return ws.Variant(analysis.WorkloadMultiPath).FramesSent
	}
	return 0
}

type checkGroup struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
}

type checkReport struct {
	CellsExpected int          `json:"cells_expected"`
	SnapshotsOK   int          `json:"snapshots_ok"`
	Errors        []string     `json:"errors"`
	Groups        []checkGroup `json:"groups"`
	Counts        counts       `json:"counts"`
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	out := fs.String("out", "", "sweep output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := core.ReadManifest(*out)
	if err != nil {
		return err
	}
	rep := checkReport{Errors: []string{}}
	for _, g := range m.Groups {
		rep.Groups = append(rep.Groups, checkGroup{Name: g.Name, Dataset: g.Dataset})
		for _, mc := range g.Cells {
			rep.CellsExpected++
			if err := checkCell(*out, mc, &rep); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("cell %s: %v", mc.Name, err))
				continue
			}
			rep.SnapshotsOK++
		}
	}
	seg, err := resultstore.ReadSegment(resultstore.SegmentPath(*out))
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	} else {
		rep.Counts.StoreRows = int64(len(seg.Unique()))
	}
	return writeJSON(rep)
}

// checkCell parses one manifest cell's snapshot and folds its counters
// into the report.
func checkCell(out string, mc core.ManifestCell, rep *checkReport) error {
	if mc.Snapshot == "" {
		return fmt.Errorf("no snapshot recorded in the manifest")
	}
	path := filepath.Join(out, filepath.FromSlash(mc.Snapshot))
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	snap, err := core.ReadCellSnapshot(path)
	if err != nil {
		return err
	}
	if snap.Name != mc.Name || snap.Seed != mc.Seed {
		return fmt.Errorf("snapshot is %s seed %d, manifest wants seed %d", snap.Name, snap.Seed, mc.Seed)
	}
	rep.Counts.SnapshotBytes += st.Size()
	rep.Counts.add(snap.RONProbes, snap.MeasureProbes, snap.RouteChanges, snap.Aggregator())
	return nil
}
