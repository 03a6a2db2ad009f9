package sssp

// Exports for the backward-pass tests in package sssp_test, which
// import internal/brandes (itself an importer of this package) and so
// cannot live in package sssp.

// DijkstraRoute names the queue route d is seated on: "dial" (integral
// weights, width-1 buckets), "calendar" (fractional weights within
// dialMaxRatio) or "heap".
func DijkstraRoute(d *Dijkstra) string {
	switch {
	case !d.dial:
		return "heap"
	case d.delta == 1:
		return "dial"
	default:
		return "calendar"
	}
}

var (
	EditChain    = editChain
	DiamondChain = diamondChain
)
