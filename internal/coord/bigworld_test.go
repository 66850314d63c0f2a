package coord

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFleetBigWorldCell sends one 512-node landmark-policy cell through
// a worker over HTTP. Its snapshot scales with the paths the cell
// probed, not with n², so the upload fits under maxSnapshotBytes and is
// accepted; the merged output must equal the in-process run's.
func TestFleetBigWorldCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 512-node cell")
	}
	spec := core.SweepSpec{
		Datasets: []core.Dataset{core.RONnarrow},
		Days:     0.002,
		BaseSeed: 1,
		Replicas: 1,
		Axes:     []core.Axis{core.OverlaySizeAxis(512), core.PolicyAxis(core.PolicyLandmark)},
	}
	sweep, err := core.NewSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sweep.Cells()); n != 1 {
		t.Fatalf("grid has %d cells, want 1", n)
	}
	if size := len(snapshotBytes(t, sweep, 0)); size > maxSnapshotBytes {
		t.Fatalf("cell snapshot is %d bytes, over the %d-byte upload limit", size, maxSnapshotBytes)
	}

	c, err := New(Config{Sweep: sweep, LeaseTTL: time.Minute, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c).Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := NewWorker(ts.URL, WithName("w1")).Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	select {
	case <-c.Done():
	case <-time.After(time.Minute):
		t.Fatal("coordinator did not reach done")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if p := c.Snapshot(); p.DoneCells != 1 || !p.Complete {
		t.Fatalf("progress after the upload: %+v", p)
	}

	local, err := core.RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet := c.Result()
	requireIdentical(t, local, fleet)
	want, err := local.Groups[0].Merged.Agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleet.Groups[0].Merged.Agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet's merged aggregator differs from the in-process run's")
	}
}
