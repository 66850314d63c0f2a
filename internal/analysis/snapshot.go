package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Aggregator snapshot codec versions. The version byte leads a
// serialized aggregator; AppendBinary writes aggSnapshotVersion and
// UnmarshalAggregator reads every version listed here, rejecting others.
//
// Version history:
//
//	v1: dense per-path section — 13 8-byte fields for every one of the
//	    n² ordered paths of every method — then the pooled window
//	    samples stored expanded: u32 count, one f64 per sample.
//	v2: as v1, with the window samples as sorted run-length pairs —
//	    u32 run count then (f64 value, i64 multiplicity) per run.
//	v3: the v2 layout followed by a workload section (FEC/path shape,
//	    per-variant frame counters, latency and per-stream loss runs).
//	v4: the v2 layout followed by a u8 workload-present flag, the
//	    workload section when flagged, and a resilience section
//	    (underlay outage count, per-scheme recovery counters and
//	    time-to-recovery runs).
//	v5: sparse per-path section — per method a u32 count of observed
//	    paths, then for each in ascending path order a u32 path index
//	    and its 13 fields — so a snapshot scales with the paths probed,
//	    not with n². The v2 window runs and tallies follow, then a u8
//	    flag and the workload section when flagged, then a u8 flag and
//	    the resilience section when flagged. One layout for every
//	    campaign.
const (
	aggSnapshotVersionExpanded   = 1
	aggSnapshotVersionWorkload   = 3
	aggSnapshotVersionResilience = 4
	aggSnapshotVersionSparse     = 5

	aggSnapshotVersion = aggSnapshotVersionSparse
)

// SnapshotCodecVersion is the aggregator codec version AppendBinary
// writes, exported so containers embedding the payload can record and
// gate on it (see internal/core's loss-window guard).
const SnapshotCodecVersion = aggSnapshotVersion

// pathStatsBytes is one path's 13 fixed-width counters on the wire;
// sparse entries add a u32 path index.
const (
	pathStatsBytes  = 13 * 8
	sparsePathBytes = 4 + pathStatsBytes
)

// minMethodBytes is the least payload one method occupies past its
// name in any version: a u32 path count or a non-empty dense section, a
// u32 window-run count, its 10 Table 6 tallies with the period total,
// and 48 diurnal tallies. The decoder checks the method count against
// it before allocating per-method state.
const minMethodBytes = 4 + 4 + 8*11 + 8*48

// binWriter accumulates the little-endian snapshot payload.
type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *binWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// binReader consumes a snapshot payload, turning overruns into a sticky
// error instead of panics so truncated inputs fail cleanly.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("analysis: aggregator snapshot truncated at byte %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *binReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *binReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *binReader) i64() int64     { return int64(r.u64()) }
func (r *binReader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *binReader) str() string    { return string(r.take(int(r.u32()))) }
func (r *binReader) remaining() int { return len(r.buf) - r.off }

// Hosts returns the mesh size the aggregator was built for.
func (a *Aggregator) Hosts() int { return a.nHosts }

// MarshalBinary serializes the aggregator's complete statistical state —
// per-path counters, pooled window samples, high-loss-hour tallies, and
// diurnal profiles — so a campaign's analysis can be persisted and later
// merged exactly (float sums round-trip bit-for-bit, so tables rebuilt
// from snapshots are byte-identical to in-process results).
//
// The aggregator is flushed first: in-progress windows contribute their
// samples and the window machinery resets, exactly as Merge would do.
// The encoding carries no integrity check of its own; wrap it in a
// checksummed container (see internal/core's cell snapshots) when
// writing to disk.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	return a.AppendBinary(nil)
}

// AppendBinary is MarshalBinary appending to buf, so per-cell snapshot
// writers can reuse one encode buffer across cells instead of
// allocating a payload-sized temporary per finished cell.
func (a *Aggregator) AppendBinary(buf []byte) ([]byte, error) {
	a.Flush()
	w := &binWriter{buf: buf}
	w.u8(aggSnapshotVersion)
	a.appendHeader(w)
	paths := 0
	for m := range a.methods {
		paths += len(a.slots[m])
	}
	w.buf = slices.Grow(w.buf, len(a.methods)*4+paths*sparsePathBytes)
	for m := range a.methods {
		slots := a.pathSlots(m)
		w.u32(uint32(len(slots)))
		for i := range slots {
			w.u32(uint32(slots[i].path))
			w.pathStats(&slots[i].stats)
		}
	}
	for m := range a.methods {
		w.cdfRuns(a.win20Rates[m])
	}
	a.appendTallies(w)
	hasWL := a.wl != nil && a.wl.HasData()
	w.flag(hasWL)
	if hasWL {
		a.appendWorkload(w)
	}
	hasRes := a.res != nil && a.res.HasData()
	w.flag(hasRes)
	if hasRes {
		a.appendResilience(w)
	}
	return w.buf, nil
}

// appendHeader writes the method count, host count and method names
// that follow the version byte in every version.
func (a *Aggregator) appendHeader(w *binWriter) {
	w.u32(uint32(len(a.methods)))
	w.u32(uint32(a.nHosts))
	for _, m := range a.methods {
		w.str(m)
	}
}

// appendTallies writes the sections every version carries after the
// window samples: Table 6 tallies and the diurnal profiles.
func (a *Aggregator) appendTallies(w *binWriter) {
	w.u32(uint32(len(Table6Thresholds)))
	for m := range a.methods {
		for _, c := range a.hourCounts[m] {
			w.i64(c)
		}
		w.i64(a.hourPeriods[m])
	}
	w.f64(a.hourMaxRate)
	for m := range a.methods {
		for h := 0; h < 24; h++ {
			w.i64(a.hodSent[m][h])
		}
		for h := 0; h < 24; h++ {
			w.i64(a.hodLost[m][h])
		}
	}
}

// appendWorkload writes the workload section (v3 onward).
func (a *Aggregator) appendWorkload(w *binWriter) {
	w.u32(uint32(a.wl.DataShards))
	w.u32(uint32(a.wl.ParityShards))
	w.u32(uint32(a.wl.Paths))
	for i := range a.wl.variants {
		v := &a.wl.variants[i]
		w.i64(v.FramesSent)
		w.i64(v.FramesDelivered)
		w.i64(v.ShardsSent)
		w.i64(v.ShardsDelivered)
		w.i64(v.ReconstructFailures)
		w.f64(v.latSumNS)
		w.i64(v.latN)
		w.cdfRuns(&v.latCDF)
		w.cdfRuns(&v.lossCDF)
	}
}

// appendResilience writes the resilience section (v4 onward).
func (a *Aggregator) appendResilience(w *binWriter) {
	w.i64(a.res.UnderlayOutages)
	for i := range a.res.variants {
		v := &a.res.variants[i]
		w.i64(v.ProbesSent)
		w.i64(v.ProbesDelivered)
		w.i64(v.Masked)
		w.f64(v.ttrSumNS)
		w.i64(v.ttrN)
		w.cdfRuns(&v.ttrCDF)
	}
}

// pathStats writes one path's 13 counters.
func (w *binWriter) pathStats(ps *pathStats) {
	w.i64(ps.probes)
	w.i64(ps.firstSent)
	w.i64(ps.firstLost)
	w.i64(ps.secondSent)
	w.i64(ps.secondLost)
	w.i64(ps.bothLost)
	w.i64(ps.effLost)
	w.f64(ps.latSumNS)
	w.i64(ps.latN)
	w.f64(ps.lat1SumNS)
	w.i64(ps.lat1N)
	w.f64(ps.lat2SumNS)
	w.i64(ps.lat2N)
}

// flag writes a section-present byte.
func (w *binWriter) flag(present bool) {
	if present {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// cdfRuns writes a CDF in run-length form: u32 run count, then (f64
// value, i64 multiplicity) per run in ascending value order.
func (w *binWriter) cdfRuns(c *CDF) {
	w.u32(uint32(c.Distinct()))
	c.Runs(func(v float64, count int64) {
		w.f64(v)
		w.i64(count)
	})
}

// pathStats reads one path's 13 counters.
func (r *binReader) pathStats(ps *pathStats) {
	ps.probes = r.i64()
	ps.firstSent = r.i64()
	ps.firstLost = r.i64()
	ps.secondSent = r.i64()
	ps.secondLost = r.i64()
	ps.bothLost = r.i64()
	ps.effLost = r.i64()
	ps.latSumNS = r.f64()
	ps.latN = r.i64()
	ps.lat1SumNS = r.f64()
	ps.lat1N = r.i64()
	ps.lat2SumNS = r.f64()
	ps.lat2N = r.i64()
}

// flag reads a section-present byte, which must be 0 or 1.
func (r *binReader) flag() (bool, error) {
	switch f := r.u8(); {
	case r.err != nil:
		return false, r.err
	case f > 1:
		return false, fmt.Errorf("analysis: aggregator snapshot section flag %d, want 0 or 1", f)
	default:
		return f == 1, nil
	}
}

// readCDFRuns restores a run-length CDF section written by cdfRuns.
// Runs must ascend strictly with positive counts — the only form the
// writer produces — so an accepted section re-encodes to the same bytes.
func readCDFRuns(r *binReader, c *CDF) error {
	n := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if n*16 > r.remaining() {
		return fmt.Errorf("analysis: aggregator snapshot claims %d CDF runs with %d bytes left", n, r.remaining())
	}
	var prev float64
	for i := 0; i < n; i++ {
		v := r.f64()
		count := r.i64()
		if count <= 0 {
			return fmt.Errorf("analysis: aggregator snapshot CDF run %d has non-positive count %d", i, count)
		}
		if math.IsNaN(v) || (i > 0 && !(v > prev)) {
			return fmt.Errorf("analysis: aggregator snapshot CDF run %d value %v does not ascend", i, v)
		}
		prev = v
		c.AddWeighted(v, count)
	}
	return r.err
}

// UnmarshalAggregator rebuilds an aggregator from MarshalBinary output
// of any codec version. The result is flushed (no in-progress windows)
// and ready to query or Merge. Truncated, oversized, non-canonical or
// version-mismatched payloads return an error. Allocation is bounded by
// the payload's size: every count is checked against the bytes left
// before anything is sized from it.
func UnmarshalAggregator(data []byte) (*Aggregator, error) {
	r := &binReader{buf: data}
	version := r.u8()
	if r.err == nil && (version < aggSnapshotVersionExpanded || version > aggSnapshotVersion) {
		return nil, fmt.Errorf("analysis: unsupported aggregator snapshot version %d (want 1..%d)",
			version, aggSnapshotVersion)
	}
	nm := int(r.u32())
	nHosts := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nm < 1 || nm > 1<<10 || nHosts < 2 || nHosts > maxHosts {
		return nil, fmt.Errorf("analysis: implausible aggregator snapshot header: %d methods, %d hosts", nm, nHosts)
	}
	if nm*4 > r.remaining() {
		return nil, fmt.Errorf("analysis: aggregator snapshot claims %d methods with %d bytes left", nm, r.remaining())
	}
	methods := make([]string, nm)
	for i := range methods {
		methods[i] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}
	if need := int64(nm) * minMethodBytes; need > int64(r.remaining()) {
		return nil, fmt.Errorf("analysis: aggregator snapshot claims %d methods (at least %d bytes) with %d bytes left",
			nm, need, r.remaining())
	}
	a := NewAggregator(methods, nHosts)
	var err error
	if version == aggSnapshotVersionSparse {
		err = readSparsePaths(r, a)
	} else {
		err = readDensePaths(r, a)
	}
	if err != nil {
		return nil, err
	}
	for m := 0; m < nm; m++ {
		if version == aggSnapshotVersionExpanded {
			n := int(r.u32())
			if r.err != nil {
				return nil, r.err
			}
			if n*8 > r.remaining() {
				return nil, fmt.Errorf("analysis: aggregator snapshot claims %d window samples with %d bytes left", n, r.remaining())
			}
			for i := 0; i < n; i++ {
				v := r.f64()
				if math.IsNaN(v) {
					return nil, fmt.Errorf("analysis: aggregator snapshot window sample %d is NaN", i)
				}
				a.win20Rates[m].Add(v)
			}
		} else if err := readCDFRuns(r, a.win20Rates[m]); err != nil {
			return nil, err
		}
	}
	if nt := int(r.u32()); r.err == nil && nt != len(Table6Thresholds) {
		return nil, fmt.Errorf("analysis: aggregator snapshot has %d Table 6 thresholds, want %d",
			nt, len(Table6Thresholds))
	}
	for m := 0; m < nm; m++ {
		for i := range a.hourCounts[m] {
			a.hourCounts[m][i] = r.i64()
		}
		a.hourPeriods[m] = r.i64()
	}
	a.hourMaxRate = r.f64()
	for m := 0; m < nm; m++ {
		for h := 0; h < 24; h++ {
			a.hodSent[m][h] = r.i64()
		}
		for h := 0; h < 24; h++ {
			a.hodLost[m][h] = r.i64()
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	readWL, readRes := false, false
	switch version {
	case aggSnapshotVersionWorkload:
		readWL = true
	case aggSnapshotVersionResilience:
		readWL, readRes = r.u8() != 0, true
	case aggSnapshotVersionSparse:
		if readWL, err = r.flag(); err != nil {
			return nil, err
		}
	}
	if readWL {
		if err := readWorkload(r, a.ensureWorkload()); err != nil {
			return nil, err
		}
		if version == aggSnapshotVersionSparse && !a.wl.HasData() {
			return nil, errors.New("analysis: aggregator snapshot flags an empty workload section")
		}
	}
	if version == aggSnapshotVersionSparse {
		if readRes, err = r.flag(); err != nil {
			return nil, err
		}
	}
	if readRes {
		if err := readResilience(r, a.ensureResilience()); err != nil {
			return nil, err
		}
		if version == aggSnapshotVersionSparse && !a.res.HasData() {
			return nil, errors.New("analysis: aggregator snapshot flags an empty resilience section")
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("analysis: %d trailing bytes after aggregator snapshot", r.remaining())
	}
	return a, nil
}

// readSparsePaths reads the v5 per-path section: per method a count,
// then that many (path index, counters) entries in strictly ascending
// path order, each with probes > 0. Slots are sized to the count, which
// is checked against the bytes left first.
func readSparsePaths(r *binReader, a *Aggregator) error {
	nPaths := uint32(a.nHosts * a.nHosts)
	for m := range a.methods {
		n := r.u32()
		if r.err != nil {
			return r.err
		}
		if n > nPaths || int64(n)*sparsePathBytes > int64(r.remaining()) {
			return fmt.Errorf("analysis: aggregator snapshot claims %d paths for method %d (of %d) with %d bytes left",
				n, m, nPaths, r.remaining())
		}
		slots := make([]pathSlot, n)
		for i := range slots {
			pi := r.u32()
			if pi >= nPaths || (i > 0 && pi <= uint32(slots[i-1].path)) {
				return fmt.Errorf("analysis: aggregator snapshot path %d of method %d has index %d: want ascending below %d",
					i, m, pi, nPaths)
			}
			slots[i].path = int32(pi)
			slots[i].win = freshWindows
			r.pathStats(&slots[i].stats)
			if slots[i].stats.probes <= 0 {
				return fmt.Errorf("analysis: aggregator snapshot path %d of method %d lists %d probes",
					pi, m, slots[i].stats.probes)
			}
		}
		a.slots[m] = slots
	}
	return r.err
}

// readDensePaths reads the v1–v4 per-path section, every one of the n²
// paths of every method, keeping the observed ones (probes > 0).
func readDensePaths(r *binReader, a *Aggregator) error {
	nPaths := a.nHosts * a.nHosts
	// Refuse implausible headers before reading what a corrupt file
	// merely claims.
	if need := int64(len(a.methods)) * int64(nPaths) * pathStatsBytes; need > int64(r.remaining()) {
		return fmt.Errorf("analysis: aggregator snapshot claims %d methods × %d hosts (%d bytes of path stats) with %d bytes left",
			len(a.methods), a.nHosts, need, r.remaining())
	}
	for m := range a.methods {
		for pi := 0; pi < nPaths; pi++ {
			var ps pathStats
			r.pathStats(&ps)
			if ps.probes > 0 {
				a.slots[m] = append(a.slots[m], pathSlot{path: int32(pi), win: freshWindows, stats: ps})
			}
		}
	}
	return r.err
}

// readWorkload restores a workload section written by appendWorkload.
func readWorkload(r *binReader, wl *WorkloadStats) error {
	wl.DataShards = int(r.u32())
	wl.ParityShards = int(r.u32())
	wl.Paths = int(r.u32())
	for i := range wl.variants {
		v := &wl.variants[i]
		v.FramesSent = r.i64()
		v.FramesDelivered = r.i64()
		v.ShardsSent = r.i64()
		v.ShardsDelivered = r.i64()
		v.ReconstructFailures = r.i64()
		v.latSumNS = r.f64()
		v.latN = r.i64()
		if err := readCDFRuns(r, &v.latCDF); err != nil {
			return err
		}
		if err := readCDFRuns(r, &v.lossCDF); err != nil {
			return err
		}
	}
	return r.err
}

// readResilience restores a resilience section written by
// appendResilience.
func readResilience(r *binReader, res *ResilienceStats) error {
	res.UnderlayOutages = r.i64()
	for i := range res.variants {
		v := &res.variants[i]
		v.ProbesSent = r.i64()
		v.ProbesDelivered = r.i64()
		v.Masked = r.i64()
		v.ttrSumNS = r.f64()
		v.ttrN = r.i64()
		if err := readCDFRuns(r, &v.ttrCDF); err != nil {
			return err
		}
	}
	return r.err
}
