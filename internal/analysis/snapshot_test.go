package analysis

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAggregatorSnapshotRoundTrip checks the serialization contract: an
// unmarshaled aggregator answers every query identically to the
// original, and re-marshaling yields identical bytes (the property the
// sharded-sweep byte-identity guarantee rests on).
func TestAggregatorSnapshotRoundTrip(t *testing.T) {
	a := feed(mergeStream(30000, 5))
	want := queries(a)

	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAggregator(data)
	if err != nil {
		t.Fatal(err)
	}
	got := queries(b)
	for k := range want {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Errorf("query %s differs after round trip", k)
		}
	}
	data2, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-marshaling a round-tripped aggregator changed the bytes")
	}
}

// TestAggregatorSnapshotFlushesFirst: an in-progress window must
// contribute its samples to the snapshot, exactly as Merge would flush
// it.
func TestAggregatorSnapshotFlushesFirst(t *testing.T) {
	a := feed(mergeStream(5000, 2))
	// Don't flush; MarshalBinary must.
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAggregator(data)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Methods() {
		if got, want := b.WindowRateCDF(m).N(), a.WindowRateCDF(m).N(); got != want {
			t.Errorf("method %d: %d window samples after round trip, want %d", m, got, want)
		}
		if b.WindowRateCDF(m).N() == 0 {
			t.Errorf("method %d: no window samples — snapshot did not flush", m)
		}
	}
}

// TestAggregatorSnapshotMergeEquivalence: merging two unmarshaled
// aggregators must equal merging the originals — the merge-from-
// snapshots path of a distributed sweep.
func TestAggregatorSnapshotMergeEquivalence(t *testing.T) {
	obs := mergeStream(40000, 6)
	left, right := feed(obs[:20000]), feed(obs[20000:])
	direct := feed(obs[:20000])
	if err := direct.Merge(feed(obs[20000:])); err != nil {
		t.Fatal(err)
	}

	restore := func(a *Aggregator) *Aggregator {
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := UnmarshalAggregator(data)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	combined := restore(left)
	if err := combined.Merge(restore(right)); err != nil {
		t.Fatal(err)
	}
	want, got := queries(direct), queries(combined)
	for k := range want {
		if !reflect.DeepEqual(want[k], got[k]) {
			t.Errorf("query %s: merge of snapshots differs from direct merge", k)
		}
	}
}

func TestAggregatorSnapshotRejectsBadInput(t *testing.T) {
	a := feed(mergeStream(2000, 1))
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalAggregator(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := UnmarshalAggregator(data[:len(data)/2]); err == nil {
		t.Error("accepted truncated input")
	}
	if _, err := UnmarshalAggregator(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("accepted trailing junk")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99 // version byte
	if _, err := UnmarshalAggregator(bad); err == nil {
		t.Error("accepted unknown version")
	}
	// A huge claimed sample count must fail cleanly, not allocate wildly.
	huge := append([]byte(nil), data[:9]...) // version + counts header
	if _, err := UnmarshalAggregator(huge); err == nil {
		t.Error("accepted header-only input")
	}
	// A plausible-looking header claiming a giant mesh must be rejected
	// before NewAggregator allocates O(hosts²) state for it.
	w := &binWriter{}
	w.u8(aggSnapshotVersion)
	w.u32(1)
	w.u32(50000)
	w.str("direct")
	if _, err := UnmarshalAggregator(w.buf); err == nil {
		t.Error("accepted a 50000-host header with no payload")
	}
}

// TestAggregatorSnapshotRejectsBadSparse checks the sparse per-path
// section's validation: a path count beyond n² or beyond the bytes
// left, indices out of range or not strictly ascending, listed paths
// with no probes, and non-canonical section flags are all refused.
func TestAggregatorSnapshotRejectsBadSparse(t *testing.T) {
	a := feed(mergeStream(2000, 1))
	good, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAggregator(good); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Offsets into the payload: version, method and host counts, then
	// the method names, then method 0's path count and first entries.
	countAt := 1 + 4 + 4
	for _, m := range a.Methods() {
		countAt += 4 + len(m)
	}
	firstPath := countAt + 4
	secondPath := firstPath + sparsePathBytes
	le32 := func(b []byte, off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"count beyond n²", func(b []byte) { le32(b, countAt, 6*6+1) }},
		{"index out of range", func(b []byte) { le32(b, firstPath, 36) }},
		{"indices not ascending", func(b []byte) { copy(b[secondPath:secondPath+4], b[firstPath:firstPath+4]) }},
		{"path without probes", func(b []byte) { clear(b[firstPath+4 : firstPath+12]) }},
		{"workload flag not 0/1", func(b []byte) { b[len(b)-2] = 2 }},
	} {
		bad := append([]byte(nil), good...)
		tc.mutate(bad)
		if _, err := UnmarshalAggregator(bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := UnmarshalAggregator(good[:secondPath]); err == nil {
		t.Error("accepted a path count beyond the bytes left")
	}
	// A flagged section must hold data: the writer flags only those,
	// so an accepted payload re-encodes to its own bytes.
	empty := &binWriter{buf: append([]byte(nil), good[:len(good)-1]...)}
	empty.flag(true)
	(&Aggregator{res: &ResilienceStats{}}).appendResilience(empty)
	if _, err := UnmarshalAggregator(empty.buf); err == nil {
		t.Error("accepted a flagged empty resilience section")
	}
	// A plausible header claiming more methods than the payload could
	// hold is refused before per-method state is allocated.
	w := &binWriter{}
	w.u8(aggSnapshotVersion)
	w.u32(1 << 10)
	w.u32(1 << 15)
	for i := 0; i < 1<<10; i++ {
		w.str("m")
	}
	if _, err := UnmarshalAggregator(w.buf); err == nil {
		t.Error("accepted 1024 methods with no per-method payload")
	}
}
