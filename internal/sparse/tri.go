package sparse

// CSC is a compressed-sparse-column matrix. Row indices within each column
// are sorted strictly increasing. It is the storage the factorization
// packages operate on (columns of L are produced in order).
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	Row        []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.Val) }

// ToCSR converts a CSC matrix to CSR form.
func (a *CSC) ToCSR() *CSR {
	// Columns of A are rows of Aᵀ, so reinterpret and transpose.
	at := &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: a.ColPtr, Col: a.Row, Val: a.Val}
	return at.Transpose()
}

// UpperCSC extracts the upper triangle (including the diagonal) of a
// square CSR matrix in CSC form. For a symmetric matrix stored with full
// pattern, column j of the upper triangle equals row j restricted to
// columns <= j, which this exploits to avoid a transpose.
//
// The caller asserts symmetry; the extraction is exact only for symmetric
// input.
func (a *CSR) UpperCSC() *CSC {
	if a.Rows != a.Cols {
		panic("sparse: UpperCSC requires a square matrix")
	}
	n := a.Rows
	out := &CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	nnz := 0
	for j := 0; j < n; j++ {
		for p := a.RowPtr[j]; p < a.RowPtr[j+1] && a.Col[p] <= j; p++ {
			nnz++
		}
	}
	out.Row = make([]int, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	for j := 0; j < n; j++ {
		for p := a.RowPtr[j]; p < a.RowPtr[j+1] && a.Col[p] <= j; p++ {
			out.Row = append(out.Row, a.Col[p])
			out.Val = append(out.Val, a.Val[p])
		}
		out.ColPtr[j+1] = len(out.Row)
	}
	return out
}

// LowerSolveCSC solves L x = b in place (x overwrites b) where L is lower
// triangular with unit or non-unit diagonal stored in CSC form; the
// diagonal entry must be the first entry of each column.
func LowerSolveCSC(l *CSC, x []float64) {
	if l.Rows != l.Cols || len(x) != l.Rows {
		panic("sparse: LowerSolveCSC dimension mismatch")
	}
	for j := 0; j < l.Cols; j++ {
		p := l.ColPtr[j]
		e := l.ColPtr[j+1]
		if p == e || l.Row[p] != j {
			panic("sparse: LowerSolveCSC missing diagonal")
		}
		x[j] /= l.Val[p]
		xj := x[j]
		for p++; p < e; p++ {
			x[l.Row[p]] -= l.Val[p] * xj
		}
	}
}

// LowerTransposeSolveCSC solves Lᵀ x = b in place where L is lower
// triangular in CSC form with the diagonal first in each column.
func LowerTransposeSolveCSC(l *CSC, x []float64) {
	if l.Rows != l.Cols || len(x) != l.Rows {
		panic("sparse: LowerTransposeSolveCSC dimension mismatch")
	}
	for j := l.Cols - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		e := l.ColPtr[j+1]
		if p == e || l.Row[p] != j {
			panic("sparse: LowerTransposeSolveCSC missing diagonal")
		}
		s := x[j]
		for q := p + 1; q < e; q++ {
			s -= l.Val[q] * x[l.Row[q]]
		}
		x[j] = s / l.Val[p]
	}
}

// Dense returns the matrix as a dense row-major slice of rows, mainly for
// tests and for the small reduced systems PACT produces.
func (a *CSR) Dense() [][]float64 {
	d := make([][]float64, a.Rows)
	buf := make([]float64, a.Rows*a.Cols)
	for i := range d {
		d[i] = buf[i*a.Cols : (i+1)*a.Cols]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d[i][a.Col[p]] = a.Val[p]
		}
	}
	return d
}
