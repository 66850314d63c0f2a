package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// marshalDense serializes an aggregator in one of the retired dense
// layouts (versions 1–4) exactly as the writers of those versions did —
// every one of the n² paths of every method, unobserved ones as zeros —
// so the reader's legacy paths are exercised against faithful fixtures.
func marshalDense(t testing.TB, a *Aggregator, version uint8) []byte {
	t.Helper()
	a.Flush()
	w := &binWriter{}
	w.u8(version)
	a.appendHeader(w)
	var zero pathStats
	for m := range a.methods {
		slots, next := a.pathSlots(m), 0
		for pi := 0; pi < a.nHosts*a.nHosts; pi++ {
			if next < len(slots) && int(slots[next].path) == pi {
				w.pathStats(&slots[next].stats)
				next++
			} else {
				w.pathStats(&zero)
			}
		}
	}
	for m := range a.methods {
		if version == aggSnapshotVersionExpanded {
			samples := a.win20Rates[m].Samples()
			w.u32(uint32(len(samples)))
			for _, s := range samples {
				w.f64(s)
			}
		} else {
			w.cdfRuns(a.win20Rates[m])
		}
	}
	a.appendTallies(w)
	hasWL := a.wl != nil && a.wl.HasData()
	switch version {
	case aggSnapshotVersionWorkload:
		a.appendWorkload(w)
	case aggSnapshotVersionResilience:
		w.flag(hasWL)
		if hasWL {
			a.appendWorkload(w)
		}
		a.appendResilience(w)
	}
	return w.buf
}

// TestAggregatorSnapshotReadsV1 locks backward compatibility: a payload
// in the retired expanded-sample v1 layout must restore to the same
// queryable state as the current codec, so snapshots written by
// pre-run-length builds (e.g. sweep cells computed on an older worker)
// stay mergeable.
func TestAggregatorSnapshotReadsV1(t *testing.T) {
	a := feed(mergeStream(30000, 5))

	v1 := marshalDense(t, a, aggSnapshotVersionExpanded)
	fromV1, err := UnmarshalAggregator(v1)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}

	cur, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromCur, err := UnmarshalAggregator(cur)
	if err != nil {
		t.Fatal(err)
	}
	if cur[0] != aggSnapshotVersion {
		t.Fatalf("writer emits version %d, want %d", cur[0], aggSnapshotVersion)
	}
	if len(cur) >= len(v1) && fromCur.WindowRateCDF(0).N() > 2*fromCur.WindowRateCDF(0).Distinct() {
		t.Errorf("current payload (%d bytes) not smaller than v1 (%d bytes) despite repeated samples",
			len(cur), len(v1))
	}

	wantQ, gotQ := queries(fromCur), queries(fromV1)
	for k := range wantQ {
		if !reflect.DeepEqual(wantQ[k], gotQ[k]) {
			t.Errorf("query %s differs between v1 and current restores", k)
		}
	}

	// A v1 restore must re-marshal into the current version, byte for
	// byte what the original aggregator encodes to.
	re, err := fromV1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if re[0] != aggSnapshotVersion {
		t.Errorf("re-marshaled v1 restore has version %d, want %d", re[0], aggSnapshotVersion)
	}
	if !bytes.Equal(re, cur) {
		t.Error("re-marshaled v1 restore differs from the original's encoding")
	}
}

// meshStream is a deterministic observation stream over a hosts-node
// mesh with three methods in rotation (one single-copy, two pairs), each
// probe from a random source to a random destination — the measurement
// pattern of a campaign cell. Times grow monotonically over hours.
func meshStream(hosts, n, hours int) []Observation {
	state := uint64(0x2545F4914F6CDD1D)
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	span := int64(hours) * int64(time.Hour)
	out := make([]Observation, n)
	for i := range out {
		src := next(hosts)
		dst := next(hosts - 1)
		if dst >= src {
			dst++
		}
		m := i % 3
		out[i] = Observation{
			Method: m,
			Src:    src,
			Dst:    dst,
			Time:   span * int64(i) / int64(n),
			Copies: 1 + min(m, 1),
			Lost:   [2]bool{next(17) == 0, next(5) == 0 && next(3) == 0},
			Lat: [2]time.Duration{
				time.Duration(20+next(120)) * time.Millisecond,
				time.Duration(25+next(120)) * time.Millisecond,
			},
		}
	}
	return out
}

// meshAggregator feeds meshStream into a fresh aggregator and adds
// workload and resilience data, so every section of every codec version
// carries content.
func meshAggregator(hosts, n int) *Aggregator {
	a := NewAggregator([]string{"loss", "direct rand", "lat loss"}, hosts)
	for _, o := range meshStream(hosts, n, 6) {
		a.Observe(o)
	}
	a.SetWorkloadMeta(4, 2, 3)
	for i := 0; i < 50; i++ {
		a.WorkloadFrame(i%2, i%7 != 0, 6, 5, time.Duration(40+i)*time.Millisecond)
	}
	a.WorkloadStreamLoss(0, 1.5)
	a.WorkloadStreamLoss(1, 0.5)
	a.ResilienceOutage()
	a.ResilienceProbe(0, true)
	a.ResilienceOutcome(0, true, 3*time.Second)
	return a
}

// figureQueries is everything a rendered report reads, per method:
// Table 5 rows and inferred single-copy rows, Table 6, and the Figure
// 2–5 distributions (Figure 5 against a cross-method reference too),
// plus every path's raw counters.
func figureQueries(a *Aggregator) map[string]any {
	out := queries(a)
	for m, name := range a.Methods() {
		out["inferred-"+name] = []MethodTotals{a.InferredSingle(m, 0, "c0"), a.InferredSingle(m, 1, "c1")}
		out["clp-"+name] = a.CLPByPathCDF(m).Samples()
		out["fig5-"+name] = a.PathLatencyCDF(m, 0, 70*time.Millisecond).Samples()
		var totals [][4]int64
		for src := 0; src < a.Hosts(); src++ {
			for dst := 0; dst < a.Hosts(); dst++ {
				p, fl, bl, el := a.PathTotals(m, src, dst)
				totals = append(totals, [4]int64{p, fl, bl, el})
			}
		}
		out["paths-"+name] = totals
	}
	return out
}

// TestAggregatorDenseAndSparseAgree decodes a dense v4 payload and the
// current sparse payload of the same aggregator — on the paper's 30-host
// mesh, where every path is observed, and on a 512-host mesh at the
// ~12% path coverage of a landmark-policy cell — and requires
// bit-identical queries and identical re-encodings.
func TestAggregatorDenseAndSparseAgree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hosts, n int
	}{
		{"n=30", 30, 60000},
		{"n=512-lm", 512, 100000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := meshAggregator(tc.hosts, tc.n)
			dense := marshalDense(t, a, aggSnapshotVersionResilience)
			sparse, err := a.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d paths observed: dense v4 %d bytes, sparse %d bytes",
				a.PathCount(0)+a.PathCount(1)+a.PathCount(2), len(dense), len(sparse))
			fromDense, err := UnmarshalAggregator(dense)
			if err != nil {
				t.Fatalf("dense v4 payload rejected: %v", err)
			}
			fromSparse, err := UnmarshalAggregator(sparse)
			if err != nil {
				t.Fatalf("sparse payload rejected: %v", err)
			}
			want, got := figureQueries(fromDense), figureQueries(fromSparse)
			for k := range want {
				// %v prints floats in shortest round-trip form, so equal
				// text means equal bits.
				if !reflect.DeepEqual(want[k], got[k]) || fmt.Sprint(want[k]) != fmt.Sprint(got[k]) {
					t.Errorf("query %s differs between dense and sparse restores", k)
				}
			}
			reDense, err := fromDense.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			reSparse, err := fromSparse.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reDense, sparse) || !bytes.Equal(reSparse, sparse) {
				t.Error("dense and sparse restores do not re-encode to the original sparse payload")
			}
		})
	}
}
