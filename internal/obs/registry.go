// Registry: labeled counters and histograms for run-wide
// component metrics. Like everything in the simulator it is
// single-threaded — one registry belongs to one deployment — and its
// snapshot sorts every section by name so the JSON document is
// deterministic.
package obs

import "sort"

// Counter is a monotonically increasing count. A nil *Counter is a
// valid no-op target, so components keep instrumentation unconditional.
type Counter struct {
	name string
	v    uint64
}

// Set overwrites the value — used when folding a component's own counter
// into the registry at snapshot time.
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.v = v
	}
}

// histBounds are the fixed 1-2-5 decade bucket upper bounds shared by
// every histogram; a fixed layout keeps Observe allocation-free and the
// snapshot deterministic.
var histBounds = func() []float64 {
	var out []float64
	scale := 0.001
	for e := 0; e < 10; e++ {
		out = append(out, 1*scale, 2*scale, 5*scale)
		scale *= 10
	}
	return out
}()

// Histogram counts observations into fixed 1-2-5 decade buckets
// spanning 0.001 .. 5e6, with an overflow bucket above.
type Histogram struct {
	name     string
	counts   []uint64 // len(histBounds)+1; last is overflow
	n        uint64
	sum      float64
	min, max float64
}

// Observe records one sample. Allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	for i, le := range histBounds {
		if v <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(histBounds)]++
}

// Registry owns one run's instruments.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. Nil
// registry yields nil, which every Counter method accepts.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, counts: make([]uint64, len(histBounds)+1)}
		r.hists[name] = h
	}
	return h
}

// SetCounter folds an externally maintained count into the registry.
func (r *Registry) SetCounter(name string, v uint64) { r.Counter(name).Set(v) }

// CounterSnap is one counter's snapshot row.
type CounterSnap struct {
	Name  string
	Value uint64
}

// Bucket is one non-empty histogram bucket: Le is the inclusive upper
// bound, Count the samples that landed in (previous bound, Le].
type Bucket struct {
	Le    float64
	Count uint64
}

// HistogramSnap is one histogram's snapshot row. Only non-empty buckets
// are listed; Overflow counts samples above the largest bound.
type HistogramSnap struct {
	Name     string
	Count    uint64
	Sum      float64
	Min, Max float64
	Buckets  []Bucket `json:",omitempty"`
	Overflow uint64   `json:",omitempty"`
}

// Snapshot is the registry's serializable document, each section sorted
// by name.
type Snapshot struct {
	Counters   []CounterSnap   `json:",omitempty"`
	Histograms []HistogramSnap `json:",omitempty"`
}

// Snapshot renders the registry deterministically (nil registry yields
// nil).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	for _, name := range sortedNames(r.counters) {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: r.counters[name].v})
	}
	for _, name := range sortedNames(r.hists) {
		h := r.hists[name]
		row := HistogramSnap{Name: name, Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
		for i, c := range h.counts[:len(histBounds)] {
			if c > 0 {
				row.Buckets = append(row.Buckets, Bucket{Le: histBounds[i], Count: c})
			}
		}
		row.Overflow = h.counts[len(histBounds)]
		s.Histograms = append(s.Histograms, row)
	}
	return s
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
