package experiments

import (
	"fmt"
	"io"
	"sort"

	"ibcbench/internal/metrics"
)

// Series is a labeled sequence of (x, Dist) points, the generic shape of
// the paper's figures.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []metrics.Dist
}

// Add appends a point.
func (s *Series) Add(x float64, d metrics.Dist) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, d)
}

// Render writes the series as an aligned table.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", s.Name)
	fmt.Fprintf(w, "%-12s %-10s %-10s %-10s %-10s %-10s %-10s\n",
		s.XLabel, "min", "q1", "median", "q3", "max", "mean")
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	for _, i := range idx {
		d := s.Y[i]
		fmt.Fprintf(w, "%-12.0f %-10.1f %-10.1f %-10.1f %-10.1f %-10.1f %-10.1f\n",
			s.X[i], d.Min, d.Q1, d.Median, d.Q3, d.Max, d.Mean)
	}
}
