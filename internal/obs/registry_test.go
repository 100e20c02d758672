package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("relayer/h0/retries")
	c.Set(5)
	if r.Counter("relayer/h0/retries") != c {
		t.Fatal("counter not memoized by name")
	}
	r.SetCounter("net/sent", 99)
	snap := r.Snapshot()
	want := []CounterSnap{{Name: "net/sent", Value: 99}, {Name: "relayer/h0/retries", Value: 5}}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Fatalf("counters = %+v, want %+v (sorted by name)", snap.Counters, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("relayer/h0/backlog")
	for _, v := range []float64{0.5, 1, 1.5, 2, 100, 1e12} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms[0]
	if snap.Count != 6 || snap.Min != 0.5 || snap.Max != 1e12 {
		t.Fatalf("histogram snap = %+v", snap)
	}
	if snap.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", snap.Overflow)
	}
	var inBuckets uint64
	for _, b := range snap.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != 5 {
		t.Fatalf("bucketed samples = %d, want 5", inBuckets)
	}
	// JSON must round-trip: no Inf bounds may appear.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("histogram snapshot not marshalable: %v", err)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot")
	h.Observe(1)
	allocs := testing.AllocsPerRun(200, func() { h.Observe(2.5) })
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		// Insert in different orders across calls would still sort; use a
		// scrambled order here.
		for _, name := range []string{"z", "a", "m/x", "m/a"} {
			r.SetCounter(name, uint64(len(name)))
			r.Histogram("h/" + name).Observe(float64(len(name)))
		}
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical registries produced different snapshots")
	}
	var snap Snapshot
	if err := json.Unmarshal(build(), &snap); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not strictly sorted: %+v", snap.Counters)
		}
	}
}
