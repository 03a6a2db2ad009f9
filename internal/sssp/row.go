package sssp

import "math"

// rowPackedMax is the largest distance or σ a row entry holds: each is
// one 16-bit half of a uint32.
const rowPackedMax = 1<<16 - 1

// Row is the retained shortest-path data of one source s on an
// undirected graph — d(s,t) and σ_st for every t — packed into 16 bits
// each. In an undirected graph the same data is s's target side
// (d(t,s) = d(s,t), σ_ts = σ_st), so one Row serves both ends of the
// pair-dependency identity: as the source side of an evaluation
// δ_s•(r) (brandes.DependencyOnTargetRow) and, decoded by Target, as
// the target snapshot of a chain on s. Immutable after construction
// and safe to share across goroutines.
//
// A traversal packs when every reached distance and σ is an integer
// in [0, 2^16): 4 bytes per vertex, against the 12 (unweighted) or 16
// (weighted) of the float64 snapshot, and it decodes to exactly the
// float64 values the kernel produced. Fractional weights, a path count
// of 2^16 or more, or a distance past 2^16−1 do not pack; NewRow
// returns nil for those and the caller keeps the kernel path.
type Row struct {
	// Source is the vertex the row is rooted at.
	Source int
	// Packed holds d(s,t) and σ_st for every t, read with RowEntry;
	// σ = 0 marks an unreached t (a reached vertex has σ ≥ 1).
	Packed []uint32
}

// NewRow runs one traversal from source on b and packs it as a Row, or
// returns nil when it does not pack. b is left holding that traversal
// either way.
func NewRow(b *BFS, source int) *Row {
	b.Run(source)
	n := b.g.N()
	packed := make([]uint32, n)
	for t := 0; t < n; t++ {
		if !b.Reached(t) {
			continue
		}
		d, s := b.DistOf(t), b.SigmaOf(t)
		if d > rowPackedMax || !packable(s) {
			return nil
		}
		packed[t] = uint32(d)<<16 | uint32(s)
	}
	return &Row{Source: source, Packed: packed}
}

// NewWeightedRow is NewRow on the Dijkstra kernel: one traversal from
// source on d, packed as a Row or nil. d is left holding that
// traversal either way.
func NewWeightedRow(d *Dijkstra, source int) *Row {
	d.Run(source)
	n := d.g.N()
	packed := make([]uint32, n)
	for t := 0; t < n; t++ {
		if !d.Reached(t) {
			continue
		}
		dt, s := d.dist[t], d.sigma[t]
		if !packable(dt) || !packable(s) {
			return nil
		}
		packed[t] = uint32(dt)<<16 | uint32(s)
	}
	return &Row{Source: source, Packed: packed}
}

// RowEntry splits one Packed entry into d(s,t) and σ_st.
func RowEntry(p uint32) (dist, sigma uint32) { return p >> 16, p & rowPackedMax }

// packable reports whether x is an integer in [0, 2^16), the values a
// packed half holds exactly.
func packable(x float64) bool {
	return x >= 0 && x <= rowPackedMax && x == math.Trunc(x)
}

// Target decodes the row into buf as the target-side snapshot rooted
// at Source, reusing buf's slices when long enough, and returns buf.
// The row must come from NewRow.
func (r *Row) Target(buf *TargetSPD) *TargetSPD {
	n := len(r.Packed)
	buf.Target = r.Source
	buf.Dist = resize(buf.Dist, n)
	buf.Sigma = resize(buf.Sigma, n)
	for t, p := range r.Packed {
		if d, s := RowEntry(p); s == 0 {
			buf.Dist[t], buf.Sigma[t] = Unreachable, 0
		} else {
			buf.Dist[t], buf.Sigma[t] = int32(d), float64(s)
		}
	}
	return buf
}

// WeightedTarget is Target for a row from NewWeightedRow.
func (r *Row) WeightedTarget(buf *WeightedTargetSPD) *WeightedTargetSPD {
	n := len(r.Packed)
	buf.Target = r.Source
	buf.Dist = resize(buf.Dist, n)
	buf.Sigma = resize(buf.Sigma, n)
	for t, p := range r.Packed {
		if d, s := RowEntry(p); s == 0 {
			buf.Dist[t], buf.Sigma[t] = Unreachable, 0
		} else {
			buf.Dist[t], buf.Sigma[t] = float64(d), float64(s)
		}
	}
	return buf
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
