package analysis

import (
	"reflect"
	"testing"
	"time"
)

// mergeStream generates a deterministic pseudo-random observation stream
// over a small mesh: two methods (one single-copy, one pair), every
// ordered path, times increasing so window bookkeeping sees the same
// order a campaign would produce.
func mergeStream(n int, hours int) []Observation {
	const hosts = 6
	var out []Observation
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	span := int64(hours) * int64(time.Hour)
	for i := 0; i < n; i++ {
		src := next(hosts)
		dst := next(hosts - 1)
		if dst >= src {
			dst++
		}
		m := next(2)
		o := Observation{
			Method: m,
			Src:    src,
			Dst:    dst,
			// Time grows monotonically across the stream.
			Time:   span * int64(i) / int64(n),
			Copies: 1 + m,
			Lost:   [2]bool{next(13) == 0, next(11) == 0},
			Lat: [2]time.Duration{
				time.Duration(20+next(80)) * time.Millisecond,
				time.Duration(25+next(80)) * time.Millisecond,
			},
		}
		out = append(out, o)
	}
	return out
}

func feed(obs []Observation) *Aggregator {
	a := NewAggregator([]string{"direct", "direct rand"}, 6)
	for _, o := range obs {
		a.Observe(o)
	}
	return a
}

// queries snapshots everything Merge must preserve: Table 5 rows, Table 6,
// the window-rate and per-path CDF samples, and the diurnal profiles.
func queries(a *Aggregator) map[string]any {
	a.Flush()
	out := map[string]any{
		"table5": a.Table5(),
		"table6": a.HighLossHours(),
	}
	for m := range a.Methods() {
		out["win20-"+a.Methods()[m]] = a.WindowRateCDF(m).Samples()
		out["pathloss-"+a.Methods()[m]] = a.PathLossCDF(m, 1).Samples()
		out["lat-"+a.Methods()[m]] = a.PathLatencyCDF(m, m, 0).Samples()
		out["diurnal-"+a.Methods()[m]] = a.DiurnalProfile(m)
	}
	out["clp"] = a.CLPByPathCDF(1).Samples()
	return out
}

// TestMergeHalvesEqualSerial checks the headline Merge property: a full
// run's counters equal the merge of two half-campaign aggregators split
// at an hour boundary.
func TestMergeHalvesEqualSerial(t *testing.T) {
	obs := mergeStream(40000, 6)
	full := feed(obs)

	split := int64(3) * int64(time.Hour)
	firstHalf := NewAggregator([]string{"direct", "direct rand"}, 6)
	secondHalf := NewAggregator([]string{"direct", "direct rand"}, 6)
	for _, o := range obs {
		if o.Time < split {
			firstHalf.Observe(o)
		} else {
			secondHalf.Observe(o)
		}
	}
	if err := firstHalf.Merge(secondHalf); err != nil {
		t.Fatal(err)
	}
	got, want := queries(firstHalf), queries(full)
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: merged halves differ from serial run\n got %v\nwant %v",
				k, got[k], want[k])
		}
	}
}

// TestMergeCommutative checks A.Merge(B) and B.Merge(A) answer every
// query identically.
func TestMergeCommutative(t *testing.T) {
	obs := mergeStream(20000, 4)
	split := int64(2) * int64(time.Hour)
	var lo, hi []Observation
	for _, o := range obs {
		if o.Time < split {
			lo = append(lo, o)
		} else {
			hi = append(hi, o)
		}
	}
	ab, ba := feed(lo), feed(hi)
	if err := ab.Merge(feed(hi)); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(feed(lo)); err != nil {
		t.Fatal(err)
	}
	got, want := queries(ab), queries(ba)
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: merge is not commutative\n a+b %v\n b+a %v",
				k, got[k], want[k])
		}
	}
}

// TestMergeManyReplicas checks merging several disjoint replicas into a
// fresh aggregator sums probe counters exactly.
func TestMergeManyReplicas(t *testing.T) {
	merged := NewAggregator([]string{"direct", "direct rand"}, 6)
	var wantProbes int64
	for r := 0; r < 4; r++ {
		obs := mergeStream(5000+1000*r, 2)
		rep := feed(obs)
		wantProbes += int64(len(obs))
		if err := merged.Merge(rep); err != nil {
			t.Fatal(err)
		}
	}
	var got int64
	for m := range merged.Methods() {
		got += merged.Totals(m).Probes
	}
	if got != wantProbes {
		t.Errorf("merged probes = %d, want %d", got, wantProbes)
	}
}

// TestMergeRejectsMismatch checks the structural guards.
func TestMergeRejectsMismatch(t *testing.T) {
	a := NewAggregator([]string{"direct"}, 6)
	if err := a.Merge(nil); err == nil {
		t.Error("Merge(nil) accepted")
	}
	if err := a.Merge(a); err == nil {
		t.Error("Merge with self accepted")
	}
	if err := a.Merge(NewAggregator([]string{"direct"}, 7)); err == nil {
		t.Error("Merge with host-count mismatch accepted")
	}
	if err := a.Merge(NewAggregator([]string{"loss"}, 6)); err == nil {
		t.Error("Merge with method-name mismatch accepted")
	}
	if err := a.Merge(NewAggregator([]string{"direct", "loss"}, 6)); err == nil {
		t.Error("Merge with method-count mismatch accepted")
	}
}

// TestMergePartlyOverlappingPaths merges thirds of a campaign that each
// observed a different, partly overlapping subset of a 128-host mesh's
// paths — the sparse slot lists interleave, so every merge inserts new
// paths between existing ones — in two orders, and requires the result
// to answer every query, per-path counters included, exactly as one
// aggregator fed the whole campaign.
func TestMergePartlyOverlappingPaths(t *testing.T) {
	const hosts, n = 128, 60000
	obs := meshStream(hosts, n, 6)
	feedMesh := func(part []Observation) *Aggregator {
		a := NewAggregator([]string{"loss", "direct rand", "lat loss"}, hosts)
		for _, o := range part {
			a.Observe(o)
		}
		return a
	}
	// Thirds end on 2-hour boundaries, so no window straddles a split.
	thirds := [][]Observation{obs[:n/3], obs[n/3 : 2*n/3], obs[2*n/3:]}
	want := figureQueries(feedMesh(obs))
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		merged := NewAggregator([]string{"loss", "direct rand", "lat loss"}, hosts)
		for _, i := range order {
			if err := merged.Merge(feedMesh(thirds[i])); err != nil {
				t.Fatal(err)
			}
		}
		got := figureQueries(merged)
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("merge order %v: query %s differs from the single aggregator", order, k)
			}
		}
	}
}
