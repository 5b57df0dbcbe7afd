// Package zipf provides a bounded Zipf sampler over a finite integer domain
// with arbitrary skew s ≥ 0.
//
// The standard library's rand.Zipf requires s > 1 and samples an unbounded
// domain; the paper's synthetic workloads (Sec. VI) need skews from the full
// range [0.0, 5.0] over bounded domains ([1,100] attribute values, [0,20 s]
// delays), including the uniform case s = 0, so we sample by inverting an
// explicitly computed CDF.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sampler draws values k ∈ {0, 1, …, n−1} with probability proportional to
// 1/(k+1)^s. Rank 0 is the most probable value.
type Sampler struct {
	cdf []float64
}

// New builds a sampler over n ranks with the given skew. It panics if n < 1
// or skew < 0, which are programming errors rather than runtime conditions.
func New(n int, skew float64) *Sampler {
	if n < 1 {
		panic(fmt.Sprintf("zipf: domain size %d < 1", n))
	}
	if skew < 0 || math.IsNaN(skew) {
		panic(fmt.Sprintf("zipf: invalid skew %v", skew))
	}
	s := &Sampler{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -skew)
		s.cdf[k] = sum
	}
	inv := 1 / sum
	for k := range s.cdf {
		s.cdf[k] *= inv
	}
	// Guard against floating point drift: the last CDF entry must be exactly
	// 1 so Sample never falls off the end.
	s.cdf[n-1] = 1
	return s
}

// N returns the domain size.
func (s *Sampler) N() int { return len(s.cdf) }

// Sample draws one rank using the supplied RNG.
func (s *Sampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(s.cdf, u)
}

// Prob returns the probability mass of rank k.
func (s *Sampler) Prob(k int) float64 {
	if k < 0 || k >= len(s.cdf) {
		return 0
	}
	if k == 0 {
		return s.cdf[0]
	}
	return s.cdf[k] - s.cdf[k-1]
}
