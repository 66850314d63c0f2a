package analysis

import (
	"bytes"
	"runtime"
	"testing"
)

// decodeAllocBound is the most a payload of n bytes may make
// UnmarshalAggregator allocate: a small linear factor of its size plus
// constant slack. Every count in the format is checked against the bytes
// left before anything is sized from it, so no header, however large
// its claims, buys more than this.
func decodeAllocBound(n int) uint64 { return 16*uint64(n) + 1<<20 }

// FuzzUnmarshalAggregator feeds arbitrary bytes to the snapshot decoder,
// seeded with payloads of every codec version. Invariants: no panic;
// allocation bounded by the input size; an accepted payload of the
// current version re-encodes to exactly its own bytes, and any accepted
// payload re-encodes to a current one that is a fixed point.
func FuzzUnmarshalAggregator(f *testing.F) {
	// The retired writers emitted v3 and v4 only for aggregators holding
	// workload or resilience data, which the probe-only plain one lacks.
	for _, seed := range []struct {
		a           *Aggregator
		newestDense uint8
	}{
		{meshAggregator(4, 300), aggSnapshotVersionResilience},
		{feed(mergeStream(200, 2)), 2},
	} {
		a := seed.a
		for v := uint8(aggSnapshotVersionExpanded); v <= seed.newestDense; v++ {
			f.Add(marshalDense(f, a, v))
		}
		cur, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cur)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := UnmarshalAggregator(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), alloc, decodeAllocBound(len(data)))
		}
		if err != nil {
			return
		}
		re, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == aggSnapshotVersion && !bytes.Equal(re, data) {
			t.Fatal("accepted current-version payload does not re-encode to its own bytes")
		}
		b, err := UnmarshalAggregator(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		re2, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
