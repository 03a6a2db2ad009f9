package rng

import "math"

// Alias is a Walker/Vose alias table for O(1) sampling from a fixed
// discrete distribution. Build once with NewAlias, then Draw repeatedly.
// It is the right tool when the same non-uniform distribution is sampled
// many times (e.g. the distance-proportional source sampler of
// Chehreghani [13], which fixes P[s] ∝ d(r, s) for the whole run).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from the given non-negative weights.
// It returns nil if weights is empty or sums to zero; a negative or NaN
// entry panics.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return nil
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewAlias with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		return nil
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains has probability numerically equal to 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Draw samples an index with the table's probabilities using r.
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the support size of the table.
func (a *Alias) Len() int { return len(a.prob) }
