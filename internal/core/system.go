// Package core implements Pole Analysis via Congruence Transformations
// (PACT), the reduction algorithm of Kerns & Yang (DAC 1996): an RC
// multiport described by partitioned conductance/susceptance matrices is
// reduced by (1) a Cholesky-based congruence transform that normalizes the
// internal conductance block and decouples the connection conductances,
// and (2) a pole-analysis congruence transform that keeps only the
// eigenspace of the internal susceptance corresponding to poles below a
// cutoff frequency. Both transforms are congruences, so the non-negative
// definiteness of the matrices — and therefore the passivity and absolute
// stability of the network — is preserved exactly.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// System is the partitioned admittance representation of an RC network
// with m ports (plus an implicit common/ground node) and n internal
// nodes:
//
//	G = | A  Qᵀ |    C = | B  Rᵀ |
//	    | Q  D  |        | R  E  |
//
// relating nodal voltages and injected currents by (G + sC)x = b. A, B
// are the m×m port blocks, D, E the n×n internal blocks and Q, R the n×m
// connection blocks. All blocks come from stamping positive resistors and
// capacitors, so G and C are symmetric non-negative definite, and D is
// positive definite whenever every internal node has a DC path to a port.
type System struct {
	M, N int
	A, B *sparse.CSR // m×m port blocks
	Q, R *sparse.CSR // n×m connection blocks
	D, E *sparse.CSR // n×n internal blocks

	// Cached exact-evaluation state (the analyzed pencil D + sE and the
	// connection blocks in its ordering), initialized once; Y
	// evaluations afterwards share it read-only, so they are safe to run
	// concurrently (see YSweep).
	yOnce    sync.Once
	yErr     error
	yPen     *pencil
	yQP, yRP *sparse.CSR // m×n: row i = column i of the permuted Q, R
}

// ErrBadShape reports inconsistent block dimensions.
var ErrBadShape = errors.New("core: inconsistent system block dimensions")

// NewSystem validates block shapes and returns the partitioned system.
func NewSystem(a, b, q, r, d, e *sparse.CSR) (*System, error) {
	m := a.Rows
	n := d.Rows
	if a.Cols != m || b.Rows != m || b.Cols != m ||
		d.Cols != n || e.Rows != n || e.Cols != n ||
		q.Rows != n || q.Cols != m || r.Rows != n || r.Cols != m {
		return nil, fmt.Errorf("%w: A %dx%d B %dx%d Q %dx%d R %dx%d D %dx%d E %dx%d",
			ErrBadShape, a.Rows, a.Cols, b.Rows, b.Cols, q.Rows, q.Cols, r.Rows, r.Cols, d.Rows, d.Cols, e.Rows, e.Cols)
	}
	return &System{M: m, N: n, A: a, B: b, Q: q, R: r, D: d, E: e}, nil
}

// Partition splits full (m+n)×(m+n) conductance and susceptance matrices
// into a System given the list of port node indices (the remaining
// indices become internal nodes). The port order in the System follows
// the order of ports.
func Partition(g, c *sparse.CSR, ports []int) (*System, error) {
	if g.Rows != g.Cols || c.Rows != c.Cols || g.Rows != c.Rows {
		return nil, fmt.Errorf("%w: G %dx%d C %dx%d", ErrBadShape, g.Rows, g.Cols, c.Rows, c.Cols)
	}
	total := g.Rows
	isPort := make([]bool, total)
	for _, p := range ports {
		if p < 0 || p >= total {
			return nil, fmt.Errorf("core: port index %d out of range [0,%d)", p, total)
		}
		if isPort[p] {
			return nil, fmt.Errorf("core: duplicate port index %d", p)
		}
		isPort[p] = true
	}
	var internal []int
	for i := 0; i < total; i++ {
		if !isPort[i] {
			internal = append(internal, i)
		}
	}
	// Build a permutation [ports..., internal...] and permute, then slice
	// the blocks out.
	perm := append(append([]int(nil), ports...), internal...)
	gp := g.PermuteSym(perm)
	cp := c.PermuteSym(perm)
	m := len(ports)
	n := len(internal)
	portIdx := make([]int, m)
	intIdx := make([]int, n)
	for i := range portIdx {
		portIdx[i] = i
	}
	for i := range intIdx {
		intIdx[i] = m + i
	}
	return NewSystem(
		gp.Submatrix(portIdx, portIdx),
		cp.Submatrix(portIdx, portIdx),
		gp.Submatrix(intIdx, portIdx),
		cp.Submatrix(intIdx, portIdx),
		gp.Submatrix(intIdx, intIdx),
		cp.Submatrix(intIdx, intIdx),
	)
}

// Full reassembles the (m+n)×(m+n) G and C matrices from the partitions
// (ports first). Used by tests and by the exact-admittance cross-checks.
func (s *System) Full() (g, c *sparse.CSR) {
	tot := s.M + s.N
	gb := sparse.NewBuilder(tot, tot)
	cb := sparse.NewBuilder(tot, tot)
	addBlock := func(b *sparse.Builder, blk *sparse.CSR, ro, co int) {
		for i := 0; i < blk.Rows; i++ {
			cols, vals := blk.Row(i)
			for p, j := range cols {
				b.Add(i+ro, j+co, vals[p])
			}
		}
	}
	addBlock(gb, s.A, 0, 0)
	addBlock(gb, s.Q, s.M, 0)
	addBlock(gb, s.Q.Transpose(), 0, s.M)
	addBlock(gb, s.D, s.M, s.M)
	addBlock(cb, s.B, 0, 0)
	addBlock(cb, s.R, s.M, 0)
	addBlock(cb, s.R.Transpose(), 0, s.M)
	addBlock(cb, s.E, s.M, s.M)
	return gb.Build(), cb.Build()
}

// RCStats summarizes the element structure of the system.
func (s *System) RCStats() (nodes, conductances, capacitances int) {
	g, c := s.Full()
	// Count branch elements: each strictly-upper off-diagonal nonzero is a
	// branch; each positive diagonal surplus is an element to ground.
	count := func(a *sparse.CSR) int {
		cnt := 0
		rowAbs := make([]float64, a.Rows)
		for i := 0; i < a.Rows; i++ {
			cols, vals := a.Row(i)
			for p, j := range cols {
				if j > i && vals[p] != 0 {
					cnt++
				}
				if j != i {
					v := vals[p]
					if v < 0 {
						v = -v
					}
					rowAbs[i] += v
				}
			}
		}
		for i := 0; i < a.Rows; i++ {
			if a.At(i, i)-rowAbs[i] > 1e-12*(rowAbs[i]+1e-300) {
				cnt++ // element to ground
			}
		}
		return cnt
	}
	return s.M + s.N, count(g), count(c)
}
