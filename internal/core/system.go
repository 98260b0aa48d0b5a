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

	"repro/internal/par"
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
// indices become internal nodes, in ascending order). The port order in
// the System follows the order of ports. Each matrix is split straight
// into its three stored blocks (see splitBlocks), so the full matrices
// are never permuted or copied.
func Partition(g, c *sparse.CSR, ports []int) (*System, error) {
	if g.Rows != g.Cols || c.Rows != c.Cols || g.Rows != c.Rows {
		return nil, fmt.Errorf("%w: G %dx%d C %dx%d", ErrBadShape, g.Rows, g.Cols, c.Rows, c.Cols)
	}
	total := g.Rows
	m := len(ports)
	// slot maps a node to its index in the block order [ports...,
	// internal...]: port k to k, the i-th internal node to m+i.
	slot := make([]int, total)
	for i := range slot {
		slot[i] = -1
	}
	for k, p := range ports {
		if p < 0 || p >= total {
			return nil, fmt.Errorf("core: port index %d out of range [0,%d)", p, total)
		}
		if slot[p] >= 0 {
			return nil, fmt.Errorf("core: duplicate port index %d", p)
		}
		slot[p] = k
	}
	internal := make([]int, 0, total-m)
	for i, s := range slot {
		if s < 0 {
			slot[i] = m + len(internal)
			internal = append(internal, i)
		}
	}
	a, q, d := splitBlocks(g, ports, internal, slot)
	b, r, e := splitBlocks(c, ports, internal, slot)
	return NewSystem(a, b, q, r, d, e)
}

// splitRowChunk is the number of rows one pool task of splitBlocks
// fills. Chunk boundaries depend only on the row count, so the work
// split is deterministic.
const splitRowChunk = 1024

// splitBlocks splits the symmetric matrix x into its port block (ports ×
// ports), connection block (internal × ports) and internal block
// (internal × internal); the upper-right block is the connection
// block's transpose and is not stored. Entries land at their column's
// block slot, and exact zeros are dropped. Internal columns keep x's
// ascending order; a row's port columns are sorted only where they meet
// the port list out of order. Rows are independent, so the fill runs on
// the worker pool and the blocks are identical at every GOMAXPROCS.
func splitBlocks(x *sparse.CSR, ports, internal, slot []int) (pp, ip, ii *sparse.CSR) {
	m, n := len(ports), len(internal)
	pp = &sparse.CSR{Rows: m, Cols: m, RowPtr: make([]int, m+1)}
	ip = &sparse.CSR{Rows: n, Cols: m, RowPtr: make([]int, n+1)}
	ii = &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for k, r := range ports {
		cnt := 0
		for p := x.RowPtr[r]; p < x.RowPtr[r+1]; p++ {
			if x.Val[p] != 0 && slot[x.Col[p]] < m {
				cnt++
			}
		}
		pp.RowPtr[k+1] = pp.RowPtr[k] + cnt
	}
	for k, r := range internal {
		np, ni := 0, 0
		for p := x.RowPtr[r]; p < x.RowPtr[r+1]; p++ {
			switch {
			case x.Val[p] == 0:
			case slot[x.Col[p]] < m:
				np++
			default:
				ni++
			}
		}
		ip.RowPtr[k+1] = ip.RowPtr[k] + np
		ii.RowPtr[k+1] = ii.RowPtr[k] + ni
	}
	for _, blk := range []*sparse.CSR{pp, ip, ii} {
		blk.Col = make([]int, blk.RowPtr[blk.Rows])
		blk.Val = make([]float64, blk.RowPtr[blk.Rows])
	}
	// fill writes rows[k] of x into row k of port (its port columns) and,
	// when inner is non-nil, of inner (its internal columns).
	fill := func(rows []int, port, inner *sparse.CSR) {
		par.ForChunks(len(rows), splitRowChunk, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				r := rows[k]
				q0 := port.RowPtr[k]
				q := q0
				var qi int
				if inner != nil {
					qi = inner.RowPtr[k]
				}
				sorted := true
				for p := x.RowPtr[r]; p < x.RowPtr[r+1]; p++ {
					v := x.Val[p]
					if v == 0 {
						continue
					}
					if j := slot[x.Col[p]]; j < m {
						if q > q0 && port.Col[q-1] > j {
							sorted = false
						}
						port.Col[q], port.Val[q] = j, v
						q++
					} else if inner != nil {
						inner.Col[qi], inner.Val[qi] = j-m, v
						qi++
					}
				}
				if !sorted {
					sortRow(port.Col[q0:q], port.Val[q0:q])
				}
			}
		})
	}
	fill(ports, pp, nil)
	fill(internal, ip, ii)
	return pp, ip, ii
}

// sortRow sorts one row segment by column; the columns are distinct.
// Segments are short (one row's port entries), so insertion sort.
func sortRow(col []int, val []float64) {
	for i := 1; i < len(col); i++ {
		for j := i; j > 0 && col[j] < col[j-1]; j-- {
			col[j], col[j-1] = col[j-1], col[j]
			val[j], val[j-1] = val[j-1], val[j]
		}
	}
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
