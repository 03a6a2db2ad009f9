package stats

import "math"

// HoeffdingN returns the number of iid samples of a [0,1]-valued variable
// needed so that P[|mean - E| > eps] <= delta by Hoeffding's inequality:
// n >= ln(2/delta) / (2 eps²). This is the classical bound the uniform
// source sampler [2] obeys; the MH sampler's Eq. 14 differs by the μ(r)²
// factor.
func HoeffdingN(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic("stats: HoeffdingN requires eps > 0 and delta in (0,1)")
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// MCMCBound evaluates the right-hand side of the paper's Inequality 12
// (the Łatuszyński–Miasojedow–Niemiro bound specialised by Theorem 1):
//
//	P[|est - BC(r)| > eps] <= 2 exp{ -(T/2) (2 eps / mu - 3/T)² }
//
// for a chain of T steps (n = T+1 samples), spread norm ||f||_sp = 1 and
// minorisation constant λ = 1/mu. When 2 eps / mu <= 3/T the bound is
// vacuous and 1 is returned (a probability bound never exceeds 1).
func MCMCBound(T int, eps, mu float64) float64 {
	if T <= 0 || eps <= 0 || mu <= 0 {
		panic("stats: MCMCBound requires positive T, eps, mu")
	}
	arg := 2*eps/mu - 3/float64(T)
	if arg <= 0 {
		return 1
	}
	b := 2 * math.Exp(-float64(T)/2*arg*arg)
	if b > 1 {
		return 1
	}
	return b
}

// MCMCSampleSize returns the chain length T prescribed by the paper's
// Eq. 14 (and identically Eq. 27 for the joint sampler):
//
//	T >= mu² / (2 eps²) · ln(2/delta)
//
// It ignores the 3/T slack term exactly as the paper does ("T is usually
// large enough so that we can approximate 3/T by 0"). A length beyond
// the int range saturates at math.MaxInt.
func MCMCSampleSize(eps, delta, mu float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || mu <= 0 {
		panic("stats: MCMCSampleSize requires eps > 0, delta in (0,1), mu > 0")
	}
	t := math.Ceil(mu * mu / (2 * eps * eps) * math.Log(2/delta))
	if t >= math.MaxInt {
		return math.MaxInt
	}
	return int(t)
}

// ESSBatchMeans estimates the effective sample size of a (possibly
// autocorrelated) chain trace via the batch-means method with ~sqrt(n)
// batches: ESS = n · Var(xs)/ (b · Var(batch means)) clipped to [1, n].
// This is the standard cheap diagnostic for MCMC output.
func ESSBatchMeans(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return float64(n)
	}
	b := int(math.Floor(math.Sqrt(float64(n)))) // batch size
	numBatches := n / b
	if numBatches < 2 {
		return float64(n)
	}
	means := make([]float64, numBatches)
	for i := 0; i < numBatches; i++ {
		means[i] = Mean(xs[i*b : (i+1)*b])
	}
	varAll := Variance(xs)
	varMeans := Variance(means)
	if varMeans == 0 {
		if varAll == 0 {
			return float64(n) // constant chain: every sample "effective"
		}
		return float64(n)
	}
	ess := float64(n) * varAll / (float64(b) * varMeans)
	if ess < 1 {
		return 1
	}
	if ess > float64(n) {
		return float64(n)
	}
	return ess
}

// EmpiricalCoverage returns the fraction of errs whose absolute value
// exceeds eps — the empirical counterpart of P[|est-BC| > eps] used to
// check Theorem 1 in experiment F2.
func EmpiricalCoverage(errs []float64, eps float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	cnt := 0
	for _, e := range errs {
		if math.Abs(e) > eps {
			cnt++
		}
	}
	return float64(cnt) / float64(len(errs))
}
