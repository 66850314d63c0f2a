package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/resultstore"
	"repro/internal/route"
)

// probeSends caps the number of calls one per-call probe times; it is
// large enough to walk the caches a real cell walks and small enough
// to keep a traced run within seconds.
const probeSends = 200_000

// input is one captured probe outcome: a directed pair at a virtual
// time and what the network did to the packet.
type input struct {
	t        netsim.Time
	src, dst int
	out      netsim.Outcome
}

// layerProbes times single calls into netsim, route and analysis
// against the workload's own first cell — its topology, profile, seed,
// policy and method set — and multiplies each per-call cost by the
// grid's exact call counts to split a cell's time by layer.
func layerProbes(tr *tracer, parent int, m metrics, s *core.Sweep, res *core.SweepResult, cnt counts, cellMean time.Duration) error {
	first := res.Cells[0]
	cfg := s.Config(first.Cell.Index)
	tb := first.Res.Testbed
	n := tb.N()
	end := netsim.Time(cfg.Days * float64(netsim.Day))
	cells := float64(cnt.Cells)

	// netsim: Reset, then sends over planned pairs in time order.
	nw := netsim.New(tb, cfg.Profile, cfg.Seed)
	netReset := tr.timeN("netsim.reset", parent, 5, func() { nw.Reset(tb, cfg.Profile, cfg.Seed) }).quantile(0.5)
	m.set("netsim.reset_ms", ms(netReset), "ms")
	var plan *route.LandmarkPlan
	if cfg.Policy == core.PolicyLandmark {
		plan = route.NewLandmarkPlan(n)
	}
	rng := netsim.NewSource(cfg.Seed)
	ins := make([]input, probeSends)
	for i := range ins {
		in := &ins[i]
		in.t = end * netsim.Time(i) / netsim.Time(len(ins))
		for {
			in.src, in.dst = rng.Intn(n), rng.Intn(n)
			if in.src != in.dst && (plan == nil || plan.Probes(in.src, in.dst)) {
				break
			}
		}
	}
	sendTimes := tr.timeN("netsim.send", parent, 3, func() {
		nw.Reset(tb, cfg.Profile, cfg.Seed)
		for i := range ins {
			ins[i].out = nw.SendDirect(ins[i].t, ins[i].src, ins[i].dst)
		}
	})
	sendNS := float64(sendTimes.quantile(0.5)) / float64(len(ins))
	sends := netsimSends(res, cnt)
	m.set("netsim.send_ns", sendNS, "ns")
	m.set("netsim.sends", float64(sends), "count")

	// route: Reset, Record, the periodic SnapshotInto, KBestDisjoint.
	sel := route.NewSelectorWindow(n, cfg.LossWindow)
	// Reset re-zeroes only the links used since the previous Reset, so
	// each timed Reset follows a pass that touches links as a cell does.
	var resets durations
	for range 3 {
		for _, in := range ins {
			sel.Record(in.src, in.dst, !in.out.Delivered, in.out.Latency.Duration())
		}
		resets = append(resets, tr.time("route.reset", parent, func() { sel.Reset(cfg.LossWindow) }))
	}
	routeReset := resets.quantile(0.5)
	m.set("route.reset_ms", ms(routeReset), "ms")
	if plan != nil {
		sel.SetPlan(plan)
	}
	if cfg.Hysteresis > 0 {
		sel.SetHysteresis(cfg.Hysteresis)
	}
	record := tr.time("route.record", parent, func() {
		for _, in := range ins {
			sel.Record(in.src, in.dst, !in.out.Delivered, in.out.Latency.Duration())
		}
	})
	recordNS := float64(record) / float64(len(ins))
	m.set("route.record_ns", recordNS, "ns")

	refreshes := int64(0)
	for i := range res.Cells {
		c := s.Config(res.Cells[i].Cell.Index)
		if ivl := netsim.FromDuration(c.TableRefresh); ivl > 0 {
			refreshes += int64((netsim.Time(c.Days*float64(netsim.Day)) - 1) / ivl)
		}
	}
	m.set("route.refreshes", float64(refreshes), "count")
	// Between two refreshes a cell records ron_probes/refreshes probes;
	// replay that many before each timed snapshot so the dirty-link
	// rescan sees a realistic change set.
	batch := len(ins)
	if refreshes > 0 {
		batch = min(batch, max(1, int(cnt.RONProbes/refreshes)))
	}
	var tables, scratch route.Tables
	sel.SnapshotInto(&tables)
	var snaps durations
	next := 0
	for range 16 {
		for range batch {
			in := &ins[next]
			sel.Record(in.src, in.dst, !in.out.Delivered, in.out.Latency.Duration())
			next = (next + 1) % len(ins)
		}
		snaps = append(snaps, tr.time("route.snapshot", parent, func() {
			sel.SnapshotInto(&scratch)
			tables.Diff(&scratch)
		}))
		tables, scratch = scratch, tables
	}
	snapMS := ms(snaps.quantile(0.5))
	m.set("route.snapshot_ms", snapMS, "ms")

	k := cfg.Workload.Paths
	if k <= 0 {
		k = core.DefaultWorkloadConfig().Paths
	}
	var buf []route.Choice
	kbest := tr.time("route.kbest", parent, func() {
		for _, in := range ins {
			buf = sel.KBestDisjointAppend(buf[:0], in.src, in.dst, k)
		}
	})
	kbestNS := float64(kbest) / float64(len(ins))
	m.set("route.kbest_ns", kbestNS, "ns")

	// analysis: construction (sweeps keep every cell's aggregator, so
	// each cell builds a fresh one), Observe, Flush.
	names := first.Res.Agg.Methods()
	agg := analysis.NewAggregator(names, n)
	aggReset := tr.timeN("analysis.reset", parent, 3, func() { agg = analysis.NewAggregator(names, n) }).quantile(0.5)
	m.set("analysis.reset_ms", ms(aggReset), "ms")
	obs := observations(ins, first.Res.Methods)
	var observe, flush durations
	for range 3 {
		agg.Reset()
		observe = append(observe, tr.time("analysis.observe", parent, func() {
			for i := range obs {
				agg.Observe(obs[i])
			}
		}))
		flush = append(flush, tr.time("analysis.flush", parent, agg.Flush))
	}
	observeNS := float64(observe.quantile(0.5)) / float64(len(obs))
	flushMS := ms(flush.quantile(0.5))
	m.set("analysis.observe_ns", observeNS, "ns")
	m.set("analysis.flush_ms", flushMS, "ms")

	var merges durations
	for gi := range res.Groups {
		g := &res.Groups[gi]
		parts := make([]*core.Result, len(g.Cells))
		for i, c := range g.Cells {
			parts[i] = c.Res
		}
		var err error
		merges = append(merges, tr.time("analysis.merge", parent, func() { _, err = core.MergeResults(parts) }))
		if err != nil {
			return err
		}
	}
	m.set("analysis.merge_ms", ms(merges.quantile(0.5)), "ms")

	// Per-cell attribution: each layer's per-call cost times its exact
	// per-cell call count; what the cell spent beyond that is the event
	// queue and campaign glue.
	perCell := func(ns float64, calls int64) float64 { return ns * float64(calls) / cells / 1e6 }
	netsimMS := ms(netReset) + perCell(sendNS, sends)
	routeMS := ms(routeReset) + snapMS*float64(refreshes)/cells +
		perCell(recordNS, cnt.RONProbes) + perCell(kbestNS, cnt.WLFrames)
	analysisMS := ms(aggReset) + perCell(observeNS, cnt.MeasureProbes) + flushMS
	cellMS := ms(cellMean)
	m.set("netsim.cell_ms", netsimMS, "ms")
	m.set("route.cell_ms", routeMS, "ms")
	m.set("analysis.cell_ms", analysisMS, "ms")
	m.set("core.loop_other_ms", cellMS-netsimMS-routeMS-analysisMS, "ms")
	m.set("core.cells", cells, "count")
	m.set("core.ron_probes", float64(cnt.RONProbes), "count")
	m.set("core.measure_probes", float64(cnt.MeasureProbes), "count")
	m.set("core.route_changes", float64(cnt.RouteChanges), "count")
	m.set("core.wl_frames", float64(cnt.WLFrames), "count")
	m.set("core.snapshot_bytes", float64(cnt.SnapshotBytes), "bytes")
	return snapshotProbes(tr, parent, m, s, res)
}

// netsimSends is the exact number of packets the grid sent through
// netsim: routing probes (with follow-ups), every copy of every
// measurement probe, and every workload shard. Scenario resilience
// probes are not in the public counters and are left out.
func netsimSends(res *core.SweepResult, cnt counts) int64 {
	sends := cnt.RONProbes
	for i := range res.Cells {
		r := res.Cells[i].Res
		for mi, meth := range r.Methods {
			sends += r.Agg.Totals(mi).Probes * int64(meth.Copies())
		}
		if ws := r.Agg.Workload(); ws != nil {
			for v := range 2 {
				sends += ws.Variant(v).ShardsSent
			}
		}
	}
	return sends
}

// observations turns captured send outcomes into measurement probes in
// the cell's method rotation.
func observations(ins []input, methods []route.Method) []analysis.Observation {
	obs := make([]analysis.Observation, len(ins))
	for i, in := range ins {
		mi := i % len(methods)
		o := analysis.Observation{Method: mi, Src: in.src, Dst: in.dst, Time: int64(in.t),
			Copies: methods[mi].Copies()}
		for c := 0; c < o.Copies; c++ {
			alt := ins[(i+c)%len(ins)].out
			o.Lost[c] = !alt.Delivered
			o.Lat[c] = alt.Latency.Duration()
		}
		obs[i] = o
	}
	return obs
}

// snapshotProbes times the snapshot codec on the grid's own results:
// encode (what a worker or local sweep does per cell), decode and
// Restore (what the coordinator does per upload and a drill per cell).
func snapshotProbes(tr *tracer, parent int, m metrics, s *core.Sweep, res *core.SweepResult) error {
	var enc, dec, restore durations
	var buf []byte
	for i := range min(4, len(res.Cells)) {
		c := res.Cells[i]
		snap := core.NewCellSnapshot(c.Cell, c.Res)
		var (
			back *core.CellSnapshot
			err  error
		)
		enc = append(enc, tr.time("core.snapshot_encode", parent, func() { buf, err = snap.AppendContainer(buf[:0]) }))
		if err != nil {
			return err
		}
		dec = append(dec, tr.time("core.snapshot_decode", parent, func() { back, err = core.ParseCellSnapshot(buf) }))
		if err != nil {
			return err
		}
		restore = append(restore, tr.time("core.snapshot_restore", parent, func() { _, err = back.Restore(s.Config(c.Cell.Index)) }))
		if err != nil {
			return err
		}
	}
	m.set("core.snapshot_encode_ms", ms(enc.quantile(0.5)), "ms")
	m.set("core.snapshot_decode_ms", ms(dec.quantile(0.5)), "ms")
	m.set("core.snapshot_restore_ms", ms(restore.quantile(0.5)), "ms")
	return nil
}

// storeProbes times the result store: appending the grid's own rows to
// a scratch segment, scanning the run's segment, and selecting from it.
func storeProbes(tr *tracer, parent int, m metrics, res *core.SweepResult, out string) error {
	rows := make([]*resultstore.Row, 0, len(res.Cells)+len(res.Groups))
	for i := range res.Cells {
		rows = append(rows, core.CellStoreRow(res.Cells[i].Cell, res.Cells[i].Res))
	}
	for gi := range res.Groups {
		g := &res.Groups[gi]
		rows = append(rows, core.GroupStoreRow(g.Cells[0].Cell, g.Merged))
	}
	scratch := filepath.Join(out, "probe.seg")
	st, err := resultstore.Open(scratch)
	if err != nil {
		return err
	}
	var appends durations
	for _, r := range rows {
		appends = append(appends, tr.time("resultstore.append", parent, func() { err = st.Append(r) }))
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := os.Remove(scratch); err != nil {
		return err
	}
	m.set("resultstore.append_us", us(appends.quantile(0.5)), "us")

	path := resultstore.SegmentPath(out)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var seg *resultstore.Segment
	scans := tr.timeN("resultstore.scan", parent, 5, func() { seg, err = resultstore.ReadSegment(path) })
	if err != nil {
		return err
	}
	unique := seg.Unique()
	preds, err := resultstore.ParsePredicates("kind=group")
	if err != nil {
		return err
	}
	var sel []*resultstore.Row
	selects := tr.timeN("resultstore.select", parent, 50, func() { sel = resultstore.Select(unique, preds) })
	if len(sel) != len(res.Groups) {
		return fmt.Errorf("store selected %d group rows, grid has %d groups", len(sel), len(res.Groups))
	}
	m.set("resultstore.scan_ms", ms(scans.quantile(0.5)), "ms")
	m.set("resultstore.select_us", us(selects.quantile(0.5)), "us")
	m.set("resultstore.segment_bytes", float64(info.Size()), "bytes")
	m.set("resultstore.rows", float64(len(unique)), "count")
	return nil
}
