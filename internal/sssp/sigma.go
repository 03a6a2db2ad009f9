package sssp

import "fmt"

// SigmaExactLimit is the largest path count the kernels may produce
// while σ arithmetic remains exact: 2^53, the largest power of two up
// to which float64 represents every integer. All σ values are integer
// counts built purely by adding smaller σ values, and IEEE-754
// addition of integers is exact whenever the true sum is
// representable — so as long as every σ stays ≤ 2^53, every partial
// sum along the way does too (partial sums of non-negative terms never
// exceed the total), every kernel computes the mathematically exact
// count, and the result is independent of summation order.
//
// That order-independence is load-bearing: the direction-optimizing
// BFS sums a vertex's parent σ in bottom-up row order while the
// classic kernel accumulates them in top-down discovery order, and the
// two are bit-equal only by this argument. Past 2^53 the counts would
// round — still deterministically for a fixed order, but differently
// per order, silently desynchronizing the hybrid and classic kernels
// and the identity-oracle ratios built on them.
//
// The limit is reached on ordinary graphs. In an a×b grid the
// corner-to-corner count is σ = C(a+b−2, a−1), which passes 2^53 from
// 30×30 on (C(58,29) ≈ 3.0e16) and reaches C(78,39) ≈ 2.7e22 on a
// 40×40 grid. Such uniform-degree graphs stay on the classic loop,
// because the heavy-tail gate in NewBFS keeps the hybrid kernel off
// them, so the two kernels never have to agree there. Nothing in
// production checks the limit. sigmaCheck makes it explicit for tests:
// they flip it on, and every Run then verifies the invariant over the
// reached set, panicking on the first violation instead of letting
// rounded counts masquerade as exact ones.
const SigmaExactLimit = float64(1 << 53)

// sigmaCheck, when true, makes every BFS Run verify σ ≤
// SigmaExactLimit over the reached vertices (an O(n) sweep per run —
// debug cost, so tests opt in rather than production paying it).
// Toggled only by tests in this package, which run sequentially; it is
// not synchronized.
var sigmaCheck = false

// checkSigmaExact enforces SigmaExactLimit over the latest Run.
func (b *BFS) checkSigmaExact() {
	ep := b.epoch
	for s, t := range b.tag {
		if uint32(t>>32) == ep && b.sigma[s] > SigmaExactLimit {
			panic(fmt.Sprintf("sssp: σ = %g at slot %d exceeds 2^53; path counts are no longer exact integers and traversal results become summation-order dependent", b.sigma[s], s))
		}
	}
}
