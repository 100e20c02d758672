package sim

import "math/rand"

// RNG is the deterministic random source used throughout a simulation run.
// Each of the paper's "20 executions" of a scenario corresponds to one
// seed; the same seed always reproduces the same event trace.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded deterministic random source.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Int63 returns a uniform non-negative 63-bit value (stream derivation).
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Int63n returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Intn returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Jitter returns base scaled by a truncated-normal multiplicative factor
// with the given relative standard deviation. The result is never
// negative and never more than 4 standard deviations from base.
func (g *RNG) Jitter(base float64, relStd float64) float64 {
	if base <= 0 || relStd <= 0 {
		return base
	}
	f := g.r.NormFloat64()
	if f > 4 {
		f = 4
	}
	if f < -4 {
		f = -4
	}
	v := base * (1 + relStd*f)
	if v < 0 {
		return 0
	}
	return v
}
