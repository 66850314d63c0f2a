package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Window lengths used by the paper.
const (
	// WindowShort is the 20-minute window of Figure 3.
	WindowShort = 20 * time.Minute
	// WindowHour is the 1-hour window of Table 6.
	WindowHour = time.Hour
)

// pathStats accumulates per-(method, path) statistics.
type pathStats struct {
	probes     int64 // observations
	firstSent  int64
	firstLost  int64
	secondSent int64
	secondLost int64
	bothLost   int64 // among two-copy probes
	effLost    int64 // effective loss (all copies lost)
	latSumNS   float64
	latN       int64
	// Per-copy latency sums let Table 5 infer single-tactic rows
	// ("direct*", "lat*") from the first packets of two-packet pairs.
	lat1SumNS float64
	lat1N     int64
	lat2SumNS float64
	lat2N     int64
}

// windowState tracks the in-progress window for one (method, path).
type windowState struct {
	index int64 // window ordinal; -1 when unused
	sent  int64
	lost  int64
}

// pathWindows packs a path's 20-minute and 1-hour windows side by side
// so the per-probe hot path touches one cache line instead of two
// parallel arrays.
type pathWindows struct {
	w20 windowState
	w60 windowState
}

// freshWindows is a newly observed path's window state: no window open.
var freshWindows = pathWindows{w20: windowState{index: -1}, w60: windowState{index: -1}}

// pathSlot is the state of one observed (method, path): the path index
// (src*nHosts+dst), its in-progress windows, and its long-run counters.
type pathSlot struct {
	path  int32
	win   pathWindows
	stats pathStats
}

// add sums o's counters into s.
func (s *pathStats) add(o *pathStats) {
	s.probes += o.probes
	s.firstSent += o.firstSent
	s.firstLost += o.firstLost
	s.secondSent += o.secondSent
	s.secondLost += o.secondLost
	s.bothLost += o.bothLost
	s.effLost += o.effLost
	s.latSumNS += o.latSumNS
	s.latN += o.latN
	s.lat1SumNS += o.lat1SumNS
	s.lat1N += o.lat1N
	s.lat2SumNS += o.lat2SumNS
	s.lat2N += o.lat2N
}

// Aggregator consumes Observations and produces the paper's tables and
// figures. Create with NewAggregator; feed with Observe; query with the
// Table*/Figure* methods after the campaign (queries are also safe
// mid-campaign — they snapshot current state; in-progress windows are not
// flushed until the next observation crosses their boundary or Flush is
// called).
type Aggregator struct {
	methods []string
	nHosts  int

	// Per-path state is sparse: slots[m] holds one pathSlot per path
	// that method m has observed (probes > 0), appended on the first
	// observation. Memory, Reset, Flush, Merge and snapshots therefore
	// scale with the paths actually probed — under the landmark policy
	// O(n·√n) of the n² ordered pairs.
	//
	// Queries that accumulate floats or feed CDFs must visit paths in
	// ascending path order, as a full scan would, so slots are kept in
	// that order except while Observe appends out of order; sorted[m]
	// records which, and pathSlots restores the order lazily. Decoded
	// and merged state is always in order.
	slots  [][]pathSlot
	sorted []bool
	// index[m] maps a path to its slot plus one (0 = unobserved). It is
	// the only O(n²) structure, built on the first Observe for the
	// method, so aggregators that are only decoded, merged into or
	// queried never allocate it.
	index [][]int32
	// windowsOpen records that some slot has an in-progress window, so
	// Flush of an aggregator that is already flushed — every decoded or
	// merged one, and both sides of most merges — costs nothing.
	windowsOpen bool

	// Window machinery: the 20-minute windows (Figure 3) pool flushed
	// samples across paths per method; the 1-hour windows (Table 6)
	// count path-hours whose effective loss rate exceeded each
	// threshold.
	win20Rates  []*CDF
	hourCounts  [][]int64 // [method][threshold index]
	hourPeriods []int64   // total flushed path-hours per method
	// hourMax tracks the single worst hour across methods ("During the
	// worst one-hour period monitored, the average loss rate was over
	// 13%"): computed over the direct method if present, else method 0.
	hourMaxRate float64

	// Diurnal tallies: effective loss by hour of the virtual day, per
	// method (§4.2: "During many hours of the day, the Internet is
	// mostly quiescent and loss rates are low").
	hodSent [][24]int64
	hodLost [][24]int64

	// wl holds the application-workload metric family (workload.go);
	// nil until a workload campaign first feeds it, so probe-only
	// aggregators pay nothing.
	wl *WorkloadStats

	// res holds the failure-resilience metric family (resilience.go);
	// nil until a scenario campaign first feeds it.
	res *ResilienceStats
}

// Table6Thresholds are the loss-percentage thresholds of Table 6.
var Table6Thresholds = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

// maxHosts bounds the mesh an aggregator covers, so every path index
// src*nHosts+dst fits an int32.
const maxHosts = 1 << 15

// NewAggregator creates an aggregator for a campaign with the given
// method names over an nHosts mesh.
func NewAggregator(methods []string, nHosts int) *Aggregator {
	if len(methods) == 0 || nHosts < 2 {
		panic("analysis: aggregator needs methods and at least 2 hosts")
	}
	if nHosts > maxHosts {
		panic(fmt.Sprintf("analysis: aggregator of %d hosts exceeds maxHosts (%d)", nHosts, maxHosts))
	}
	nm := len(methods)
	a := &Aggregator{
		methods:     append([]string(nil), methods...),
		nHosts:      nHosts,
		slots:       make([][]pathSlot, nm),
		sorted:      make([]bool, nm),
		index:       make([][]int32, nm),
		win20Rates:  make([]*CDF, nm),
		hourCounts:  make([][]int64, nm),
		hourPeriods: make([]int64, nm),
		hodSent:     make([][24]int64, nm),
		hodLost:     make([][24]int64, nm),
	}
	// The Table 6 rows and window pools are carved from one slab each.
	// Full-slice-expression carving keeps an append on one row from
	// stomping its neighbor; nothing appends to these.
	hourSlab := make([]int64, nm*len(Table6Thresholds))
	cdfs := make([]CDF, nm)
	for m := 0; m < nm; m++ {
		a.sorted[m] = true
		a.win20Rates[m] = &cdfs[m]
		a.hourCounts[m] = hourSlab[m*len(Table6Thresholds) : (m+1)*len(Table6Thresholds) : (m+1)*len(Table6Thresholds)]
	}
	return a
}

// Reset returns the aggregator to its freshly constructed state — same
// method list, same host count, every counter, window, pooled sample,
// and diurnal tally zeroed — while retaining all storage. A campaign
// driver that reuses one aggregator across cells gets query results
// identical to a NewAggregator per cell without re-paying the
// allocation of its path slots and index.
func (a *Aggregator) Reset() {
	for m := range a.methods {
		// Only observed paths have index entries; clearing just those
		// keeps cell turnover O(paths probed), not O(hosts²).
		if idx := a.index[m]; idx != nil {
			for i := range a.slots[m] {
				idx[a.slots[m][i].path] = 0
			}
		}
		a.slots[m] = a.slots[m][:0]
		a.sorted[m] = true
		a.win20Rates[m].Reset()
		clear(a.hourCounts[m])
		a.hodSent[m] = [24]int64{}
		a.hodLost[m] = [24]int64{}
	}
	clear(a.hourPeriods)
	a.hourMaxRate = 0
	a.windowsOpen = false
	if a.wl != nil {
		a.wl.reset()
	}
	if a.res != nil {
		a.res.reset()
	}
}

// Reserve makes room for paths observed paths per method, so a fresh
// aggregator fed a campaign of known size fills its slots without
// regrowing them. A reused aggregator that already has the capacity is
// left as is.
func (a *Aggregator) Reserve(paths int) {
	for m := range a.slots {
		if more := paths - len(a.slots[m]); more > 0 {
			a.slots[m] = slices.Grow(a.slots[m], more)
		}
	}
}

// Methods returns the method names.
func (a *Aggregator) Methods() []string { return a.methods }

// MethodIndex returns the index of the named method, or -1.
func (a *Aggregator) MethodIndex(name string) int {
	for i, m := range a.methods {
		if m == name {
			return i
		}
	}
	return -1
}

func (a *Aggregator) pathIndex(src, dst int) int32 { return int32(src*a.nHosts + dst) }

// pathSlots returns method m's observed paths in ascending path order.
// Queries iterate it in place of a full 0..n² scan; ascending order
// makes float accumulations and CDF feeds visit paths exactly as the
// full scan would, so results are bit-identical (skipped paths are
// all-zero and contribute exact 0.0 terms or fail every filter).
func (a *Aggregator) pathSlots(m int) []pathSlot {
	if !a.sorted[m] {
		a.slots[m] = a.appendSorted(m, make([]pathSlot, 0, cap(a.slots[m])))
		a.sorted[m] = true
		a.reindex(m)
	}
	return a.slots[m]
}

// appendSorted appends method m's slots to dst in ascending path order
// without reordering a's own. Slots fall out of order only through
// Observe, which built the index, so an index scan yields the order
// with no comparison sort.
func (a *Aggregator) appendSorted(m int, dst []pathSlot) []pathSlot {
	slots := a.slots[m]
	if a.sorted[m] {
		return append(dst, slots...)
	}
	for _, s := range a.index[m] {
		if s != 0 {
			dst = append(dst, slots[s-1])
		}
	}
	return dst
}

// reindex points method m's index, if built, at its current slots.
func (a *Aggregator) reindex(m int) {
	if idx := a.index[m]; idx != nil {
		for s := range a.slots[m] {
			idx[a.slots[m][s].path] = int32(s + 1)
		}
	}
}

// addSlot appends a fresh slot for path pi of method m and returns its
// index entry (slot plus one). Kept out of observe so the per-probe
// path stays small.
func (a *Aggregator) addSlot(m int, pi int32) int32 {
	if a.index[m] == nil {
		// First Observe for the method: slots merged in earlier need
		// entries too.
		a.index[m] = make([]int32, a.nHosts*a.nHosts)
		a.reindex(m)
	}
	slots := a.slots[m]
	if n := len(slots); n > 0 && slots[n-1].path > pi {
		a.sorted[m] = false
	}
	a.slots[m] = append(slots, pathSlot{path: pi, win: freshWindows})
	s := int32(len(a.slots[m]))
	a.index[m][pi] = s
	return s
}

// Observe folds one probe outcome into every statistic. Observations for
// a given (method, path) must arrive in nondecreasing time order (window
// bookkeeping); different paths may interleave arbitrarily.
func (a *Aggregator) Observe(o Observation) {
	// Thin inlinable wrapper: the callee takes a pointer, so the
	// per-probe call moves no 64-byte Observation copy.
	a.observe(&o)
}

func (a *Aggregator) observe(o *Observation) {
	if err := o.Validate(len(a.methods), a.nHosts); err != nil {
		panic(err)
	}
	pi := a.pathIndex(o.Src, o.Dst)
	var s int32
	if idx := a.index[o.Method]; idx != nil {
		s = idx[pi]
	}
	if s == 0 {
		s = a.addSlot(o.Method, pi)
	}
	slot := &a.slots[o.Method][s-1]
	ps := &slot.stats

	ps.probes++
	ps.firstSent++
	if o.Lost[0] {
		ps.firstLost++
	}
	if o.Copies == 2 {
		ps.secondSent++
		if o.Lost[1] {
			ps.secondLost++
		}
		if o.Lost[0] && o.Lost[1] {
			ps.bothLost++
		}
	}
	eff := o.EffectiveLost()
	if eff {
		ps.effLost++
	}
	if lat, ok := o.EffectiveLatency(); ok {
		ps.latSumNS += float64(lat)
		ps.latN++
	}
	if !o.Lost[0] {
		ps.lat1SumNS += float64(o.Lat[0])
		ps.lat1N++
	}
	if o.Copies == 2 && !o.Lost[1] {
		ps.lat2SumNS += float64(o.Lat[1])
		ps.lat2N++
	}

	// The two window kinds are advanced inline — not through a generic
	// observeWindow(flush func(...)) — because this is the per-probe hot
	// path: the flush closures would capture o.Method and escape,
	// costing two allocations per observation.
	pw := &slot.win
	if idx := o.Time / int64(WindowShort); pw.w20.index != idx {
		// Every new window opens here: an hour boundary is also a
		// 20-minute boundary.
		a.windowsOpen = true
		if pw.w20.index >= 0 && pw.w20.sent > 0 {
			a.win20Rates[o.Method].Add(float64(pw.w20.lost) / float64(pw.w20.sent))
		}
		pw.w20.index = idx
		pw.w20.sent, pw.w20.lost = 0, 0
	}
	pw.w20.sent++
	if eff {
		pw.w20.lost++
	}

	if idx := o.Time / int64(WindowHour); pw.w60.index != idx {
		if pw.w60.index >= 0 && pw.w60.sent > 0 {
			a.flushHour(o.Method, float64(pw.w60.lost)/float64(pw.w60.sent))
		}
		pw.w60.index = idx
		pw.w60.sent, pw.w60.lost = 0, 0
	}
	pw.w60.sent++
	if eff {
		pw.w60.lost++
	}

	hod := int(o.Time/int64(time.Hour)) % 24
	if hod < 0 {
		hod += 24
	}
	a.hodSent[o.Method][hod]++
	if eff {
		a.hodLost[o.Method][hod]++
	}
}

// DiurnalProfile returns the effective loss rate (fraction) per hour of
// the virtual day for one method. Hours with no samples report 0.
func (a *Aggregator) DiurnalProfile(method int) [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		if s := a.hodSent[method][h]; s > 0 {
			out[h] = float64(a.hodLost[method][h]) / float64(s)
		}
	}
	return out
}

func (a *Aggregator) flushHour(method int, rate float64) {
	a.hourPeriods[method]++
	pct := rate * 100
	for i, thr := range Table6Thresholds {
		if pct > thr {
			a.hourCounts[method][i]++
		}
	}
	if rate > a.hourMaxRate {
		a.hourMaxRate = rate
	}
}

// Flush finalizes all in-progress windows. Call once after the campaign
// ends so partial windows contribute their samples.
func (a *Aggregator) Flush() {
	if !a.windowsOpen {
		return
	}
	a.windowsOpen = false
	for m := range a.methods {
		// Any slot order will do: window samples pool into a CDF and
		// hour counts are sums, so neither depends on visit order.
		for i := range a.slots[m] {
			pw := &a.slots[m][i].win
			if w := &pw.w20; w.index >= 0 && w.sent > 0 {
				a.win20Rates[m].Add(float64(w.lost) / float64(w.sent))
				w.index, w.sent, w.lost = -1, 0, 0
			}
			if w := &pw.w60; w.index >= 0 && w.sent > 0 {
				a.flushHour(m, float64(w.lost)/float64(w.sent))
				w.index, w.sent, w.lost = -1, 0, 0
			}
		}
	}
}

// Merge folds other's statistics into a, so replicate campaigns run
// independently (different seeds, different workers) can be combined into
// one set of tables. Both aggregators must have been built with the same
// method list and host count. Merge flushes both sides first, so every
// in-progress window contributes before counters are summed; after the
// merge, a's path counters, window samples, high-loss-hour counts, and
// diurnal tallies are the element-wise sums. Merging the same aggregators
// in any order yields identical query results (sums commute; CDF samples
// merge as multisets and queries sort). other is flushed but otherwise
// left intact.
func (a *Aggregator) Merge(other *Aggregator) error {
	if other == nil {
		return errors.New("analysis: Merge with nil aggregator")
	}
	if a == other {
		return errors.New("analysis: Merge of an aggregator with itself")
	}
	if a.nHosts != other.nHosts {
		return fmt.Errorf("analysis: Merge host count mismatch: %d vs %d",
			a.nHosts, other.nHosts)
	}
	if len(a.methods) != len(other.methods) {
		return fmt.Errorf("analysis: Merge method count mismatch: %d vs %d",
			len(a.methods), len(other.methods))
	}
	for i := range a.methods {
		if a.methods[i] != other.methods[i] {
			return fmt.Errorf("analysis: Merge method %d mismatch: %q vs %q",
				i, a.methods[i], other.methods[i])
		}
	}
	a.Flush()
	other.Flush()
	for m := range a.methods {
		if len(a.slots[m]) == 0 {
			// Into an empty method (every Clone, a group's first
			// replica): other's slots, presized to their exact count.
			a.slots[m] = other.appendSorted(m, slices.Grow(a.slots[m], len(other.slots[m])))
		} else {
			a.mergeSlots(m, other.pathSlots(m))
		}
		a.sorted[m] = true
		a.reindex(m)
		a.win20Rates[m].Merge(other.win20Rates[m])
		for i := range a.hourCounts[m] {
			a.hourCounts[m][i] += other.hourCounts[m][i]
		}
		a.hourPeriods[m] += other.hourPeriods[m]
		for h := 0; h < 24; h++ {
			a.hodSent[m][h] += other.hodSent[m][h]
			a.hodLost[m][h] += other.hodLost[m][h]
		}
	}
	if other.hourMaxRate > a.hourMaxRate {
		a.hourMaxRate = other.hourMaxRate
	}
	if other.wl != nil {
		if err := a.ensureWorkload().merge(other.wl); err != nil {
			return err
		}
	}
	if other.res != nil {
		a.ensureResilience().merge(other.res)
	}
	return nil
}

// mergeSlots sums theirs — slots in ascending path order — into method
// m's slots. While both lists hold the same paths at the same positions
// (a full mesh's replicas always do) it adds in place. Past that, one
// pass counts the paths new to a, the slots grow once by exactly that,
// and a merge from the back interleaves them in place, keeping a's
// slots in path order; once every new path is placed, the slots below
// the cursor are already in place and the rest of theirs only adds into
// them.
func (a *Aggregator) mergeSlots(m int, theirs []pathSlot) {
	mine := a.pathSlots(m)
	p := 0
	for p < len(mine) && p < len(theirs) && mine[p].path == theirs[p].path {
		mine[p].stats.add(&theirs[p].stats)
		p++
	}
	theirs = theirs[p:]
	fresh, i := 0, p
	for j := range theirs {
		for i < len(mine) && mine[i].path < theirs[j].path {
			i++
		}
		if i == len(mine) || mine[i].path != theirs[j].path {
			fresh++
		}
	}
	n := len(mine)
	out := slices.Grow(mine, fresh)[:n+fresh]
	i, j := n-1, len(theirs)-1
	for k := len(out) - 1; k > i; k-- {
		switch {
		case i >= 0 && out[i].path > theirs[j].path:
			out[k] = out[i]
			i--
		case i >= 0 && out[i].path == theirs[j].path:
			out[k] = out[i]
			out[k].stats.add(&theirs[j].stats)
			i--
			j--
		default:
			out[k] = theirs[j]
			j--
		}
	}
	for ; j >= 0; j-- {
		for out[i].path != theirs[j].path {
			i--
		}
		out[i].stats.add(&theirs[j].stats)
	}
	a.slots[m] = out
}

// Clone returns an independent copy of a — flushed, as Merge leaves it —
// whose per-path state is sized exactly to the paths a observed. A
// reused campaign aggregator hands out clones so retained results hold
// no spare capacity.
func (a *Aggregator) Clone() *Aggregator {
	c := NewAggregator(a.methods, a.nHosts)
	if err := c.Merge(a); err != nil {
		panic(err) // same methods and hosts by construction
	}
	return c
}

// MethodTotals is one row of Table 5 / Table 7.
type MethodTotals struct {
	Method string
	// Probes is the number of observations.
	Probes int64
	// FirstLossPct (1lp) and SecondLossPct (2lp) are per-copy loss
	// percentages; SecondLossPct is meaningful only for pair methods.
	FirstLossPct  float64
	SecondLossPct float64
	// TotalLossPct (totlp) is the effective loss percentage.
	TotalLossPct float64
	// CondLossPct (clp) is the conditional loss percentage of the
	// second copy given the first was lost; NaN-free: 0 when undefined.
	CondLossPct float64
	// MeanLatency is the mean effective latency of delivered probes.
	MeanLatency time.Duration
	// Pair reports whether the method sends two copies.
	Pair bool
}

// Totals computes the aggregate row for one method across all paths.
func (a *Aggregator) Totals(method int) MethodTotals {
	var sum pathStats
	slots := a.pathSlots(method)
	for i := range slots {
		sum.add(&slots[i].stats)
	}
	pct := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	mt := MethodTotals{
		Method:        a.methods[method],
		Probes:        sum.probes,
		FirstLossPct:  pct(sum.firstLost, sum.firstSent),
		SecondLossPct: pct(sum.secondLost, sum.secondSent),
		TotalLossPct:  pct(sum.effLost, sum.probes),
		CondLossPct:   pct(sum.bothLost, sum.firstLost),
		Pair:          sum.secondSent > 0,
	}
	if sum.latN > 0 {
		mt.MeanLatency = time.Duration(sum.latSumNS / float64(sum.latN))
	}
	return mt
}

// InferredSingle derives a single-tactic row from one copy of a pair
// method, the way the paper infers "direct*" and "lat*" from the first
// packets of "direct rand" and "lat loss" (Table 5's asterisks). copy is
// 0 or 1.
func (a *Aggregator) InferredSingle(method, copy int, name string) MethodTotals {
	var sent, lost, latN int64
	var latSum float64
	slots := a.pathSlots(method)
	for i := range slots {
		ps := &slots[i].stats
		if copy == 0 {
			sent += ps.firstSent
			lost += ps.firstLost
			latSum += ps.lat1SumNS
			latN += ps.lat1N
		} else {
			sent += ps.secondSent
			lost += ps.secondLost
			latSum += ps.lat2SumNS
			latN += ps.lat2N
		}
	}
	mt := MethodTotals{Method: name, Probes: sent}
	if sent > 0 {
		mt.FirstLossPct = 100 * float64(lost) / float64(sent)
		mt.TotalLossPct = mt.FirstLossPct
	}
	if latN > 0 {
		mt.MeanLatency = time.Duration(latSum / float64(latN))
	}
	return mt
}

// Table5 returns the totals for every method, in method order.
func (a *Aggregator) Table5() []MethodTotals {
	out := make([]MethodTotals, len(a.methods))
	for m := range a.methods {
		out[m] = a.Totals(m)
	}
	return out
}

// Table6 is the high-loss-hours table: Counts[m][k] is the number of
// path-hours in which method m's effective loss rate exceeded
// Table6Thresholds[k] percent.
type Table6 struct {
	Methods    []string
	Thresholds []float64
	Counts     [][]int64
	// Periods is the total number of flushed path-hours per method
	// ("an equal number of total sampling periods for each method").
	Periods []int64
	// WorstHourPct is the highest hourly loss rate observed.
	WorstHourPct float64
}

// HighLossHours computes Table 6. Call Flush first to include the final
// partial hour.
func (a *Aggregator) HighLossHours() Table6 {
	t6 := Table6{
		Methods:      a.methods,
		Thresholds:   Table6Thresholds,
		Counts:       make([][]int64, len(a.methods)),
		Periods:      append([]int64(nil), a.hourPeriods...),
		WorstHourPct: a.hourMaxRate * 100,
	}
	for m := range a.methods {
		t6.Counts[m] = append([]int64(nil), a.hourCounts[m]...)
	}
	return t6
}

// PathLossCDF returns Figure 2's distribution: per-path long-term
// effective loss rate (in percent) for the given method, across paths
// with at least minProbes observations.
func (a *Aggregator) PathLossCDF(method, minProbes int) *CDF {
	c := &CDF{}
	slots := a.pathSlots(method)
	for i := range slots {
		ps := &slots[i].stats
		if ps.probes < int64(minProbes) || ps.probes == 0 {
			continue
		}
		c.Add(100 * float64(ps.effLost) / float64(ps.probes))
	}
	return c
}

// WindowRateCDF returns Figure 3's distribution: pooled 20-minute
// effective loss rates (fraction in [0,1]) for the given method.
func (a *Aggregator) WindowRateCDF(method int) *CDF {
	return a.win20Rates[method]
}

// CLPByPathCDF returns Figure 4's distribution: per-path conditional loss
// probability (percent) of the second copy, across paths with at least
// one first-copy loss, for a two-copy method.
func (a *Aggregator) CLPByPathCDF(method int) *CDF {
	c := &CDF{}
	slots := a.pathSlots(method)
	for i := range slots {
		ps := &slots[i].stats
		if ps.firstLost == 0 || ps.secondSent == 0 {
			continue
		}
		c.Add(100 * float64(ps.bothLost) / float64(ps.firstLost))
	}
	return c
}

// PathLatencyCDF returns Figure 5's distribution: per-path mean effective
// latency (milliseconds) for the given method, restricted to paths whose
// mean latency under the reference method exceeds minRef. Pass method as
// reference (and 0 floor) to include all paths.
func (a *Aggregator) PathLatencyCDF(method, refMethod int, minRef time.Duration) *CDF {
	c := &CDF{}
	slots, refs := a.pathSlots(method), a.pathSlots(refMethod)
	r := 0
	for i := range slots {
		// Both lists ascend by path: advance the reference cursor to
		// this path; a path the reference never observed is skipped.
		for r < len(refs) && refs[r].path < slots[i].path {
			r++
		}
		if r == len(refs) {
			break
		}
		ref := &refs[r].stats
		if refs[r].path != slots[i].path || ref.latN == 0 {
			continue
		}
		refLat := time.Duration(ref.latSumNS / float64(ref.latN))
		if refLat < minRef {
			continue
		}
		ps := &slots[i].stats
		if ps.latN == 0 {
			continue
		}
		c.Add(ps.latSumNS / float64(ps.latN) / float64(time.Millisecond))
	}
	return c
}

// PathCount returns how many ordered paths have observations for the
// method (useful for reporting "on the N paths on which...").
func (a *Aggregator) PathCount(method int) int {
	// A slot exists exactly for paths with probes > 0.
	return len(a.slots[method])
}

// PathTotals exposes one path's raw counters for a method (testing and
// diagnostics); a path the method never observed reports zeros.
func (a *Aggregator) PathTotals(method, src, dst int) (probes, firstLost, bothLost, effLost int64) {
	slots := a.pathSlots(method)
	i, ok := slices.BinarySearchFunc(slots, a.pathIndex(src, dst),
		func(s pathSlot, pi int32) int { return cmp.Compare(s.path, pi) })
	if !ok {
		return 0, 0, 0, 0
	}
	ps := &slots[i].stats
	return ps.probes, ps.firstLost, ps.bothLost, ps.effLost
}

// String summarizes the aggregator.
func (a *Aggregator) String() string {
	var total int64
	for m := range a.methods {
		for i := range a.slots[m] {
			total += a.slots[m][i].stats.probes
		}
	}
	return fmt.Sprintf("analysis.Aggregator{methods=%d hosts=%d probes=%d}",
		len(a.methods), a.nHosts, total)
}
