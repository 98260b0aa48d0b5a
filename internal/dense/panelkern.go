// Panel micro-kernels for the supernodal factorization: the dense inner
// loops of the blocked Cholesky operate on raw column-major panels (a
// trapezoid of height h and width w with leading dimension h) rather
// than the row-major Mat type, so the chol package can call straight
// into them with its packed storage.
//
// The register shape was chosen by measurement on the scalar SSE code
// the default amd64 target emits: a 4-way k-unrolled column update (one
// destination column, four source columns per pass) beats explicit 4×4
// and 4×2 register tiles here, because the tile kernels pay strided
// panel loads and spill their accumulators, while the column kernel
// streams four contiguous source columns against one contiguous
// destination and keeps all live values in registers. Edge tails (k not
// a multiple of 4) fall back to a scalar-k loop after the quads.
//
// Determinism contract: every kernel is a pure serial function of its
// operands with a fixed accumulation order — quads of k ascending, then
// the scalar tail ascending — so results are bit-identical across runs
// and at every GOMAXPROCS regardless of how callers schedule panels
// onto workers. Structural zeros are skipped only in whole quads (or
// whole scalar-tail terms), which adds exact zeros and never reorders
// the surviving terms. Column slices are resliced to the destination's
// length where that lets the compiler drop the inner loops' bounds
// checks.
package dense

// RankKTrapAccum accumulates the lower trapezoid of a symmetric rank-wd
// product into C: for 0 ≤ j < wC and j ≤ i < hC,
//
//	C[i + j·hC] += Σₖ A[lo+i + k·lda] · A[lo+j + k·lda],  k = 0..wd-1,
//
// i.e. C += Aᵥ·Aₘᵀ restricted to the lower trapezoid, where Aᵥ is rows
// [lo, lo+hC) and Aₘ rows [lo, lo+wC) of the column-major panel A. This
// is the left-looking descendant update of the supernodal Cholesky: A
// is the descendant's trapezoid, lo the first of its rows that lands in
// the target panel's columns, wC how many land there, hC its remaining
// height.
func RankKTrapAccum(C []float64, hC, wC int, A []float64, lda, lo, wd int) {
	for j := 0; j < wC; j++ {
		rankKCol(C[j*hC:(j+1)*hC], A, lda, lo, wd, j, j, hC)
	}
}

// rankKCol accumulates rows [iLo, iHi) of one product column j:
// dst[i] += Σₖ A[lo+i + k·lda]·A[lo+j + k·lda] for dst = C[j·hC:],
// four k per pass with a scalar tail.
func rankKCol(dst []float64, A []float64, lda, lo, wd, j, iLo, iHi int) {
	if iLo >= iHi {
		return
	}
	dst = dst[iLo:iHi]
	k := 0
	for ; k+4 <= wd; k += 4 {
		p0 := k*lda + lo
		p1 := p0 + lda
		p2 := p1 + lda
		p3 := p2 + lda
		f0, f1, f2, f3 := A[p0+j], A[p1+j], A[p2+j], A[p3+j]
		if f0 == 0 && f1 == 0 && f2 == 0 && f3 == 0 {
			continue
		}
		a0 := A[p0+iLo : p0+iHi]
		a1 := A[p1+iLo : p1+iHi]
		a2 := A[p2+iLo : p2+iHi]
		a3 := A[p3+iLo : p3+iHi]
		for i := range dst {
			dst[i] += f0*a0[i] + f1*a1[i] + f2*a2[i] + f3*a3[i]
		}
	}
	for ; k < wd; k++ {
		p0 := k*lda + lo
		f0 := A[p0+j]
		if f0 == 0 {
			continue
		}
		a0 := A[p0+iLo : p0+iHi]
		for i := range dst {
			dst[i] += f0 * a0[i]
		}
	}
}

// TrsmLLBelow finishes a Cholesky panel whose w×w diagonal block
// already holds its factor L11 (lower triangular, non-unit diagonal):
// the below block rows [w, h) holding the updated A21 are overwritten
// with L21 = A21·L11⁻ᵀ. Left-looking per column c, so each destination
// column streams once per quad of source columns:
//
//	L21[:,c] = (A21[:,c] − Σₖ L11[c,k]·L21[:,k]) / L11[c,c],  k = 0..c-1.
func TrsmLLBelow(P []float64, h, w int) {
	if h <= w {
		return
	}
	for c := 0; c < w; c++ {
		dst := P[c*h+w : (c+1)*h]
		k := 0
		for ; k+4 <= c; k += 4 {
			f0 := P[k*h+c]
			f1 := P[(k+1)*h+c]
			f2 := P[(k+2)*h+c]
			f3 := P[(k+3)*h+c]
			if f0 == 0 && f1 == 0 && f2 == 0 && f3 == 0 {
				continue
			}
			a0 := P[k*h+w : k*h+h]
			a1 := P[(k+1)*h+w : (k+1)*h+h]
			a2 := P[(k+2)*h+w : (k+2)*h+h]
			a3 := P[(k+3)*h+w : (k+3)*h+h]
			for i := range dst {
				dst[i] -= f0*a0[i] + f1*a1[i] + f2*a2[i] + f3*a3[i]
			}
		}
		for ; k < c; k++ {
			f0 := P[k*h+c]
			if f0 == 0 {
				continue
			}
			a0 := P[k*h+w : k*h+h]
			for i := range dst {
				dst[i] -= f0 * a0[i]
			}
		}
		d := P[c*h+c]
		for i := range dst {
			dst[i] /= d
		}
	}
}

// TrsvLowerNonUnit solves L11 x = x in place against the w×w lower
// triangle of the panel (column-major, leading dimension h, non-unit
// diagonal): the in-block half of a supernodal forward substitution.
func TrsvLowerNonUnit(x []float64, P []float64, h, w int) {
	for j := 0; j < w; j++ {
		col := P[j*h : j*h+w]
		xj := x[j] / col[j]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for i := j + 1; i < w; i++ {
			x[i] -= col[i] * xj
		}
	}
}

// TrsvLowerTransNonUnit solves L11ᵀ x = x in place against the w×w
// lower triangle of the panel: the in-block half of a supernodal
// backward substitution.
func TrsvLowerTransNonUnit(x []float64, P []float64, h, w int) {
	for j := w - 1; j >= 0; j-- {
		col := P[j*h : j*h+w]
		s := x[j]
		for i := j + 1; i < w; i++ {
			s -= col[i] * x[i]
		}
		x[j] = s / col[j]
	}
}

// GemvBelowAccum accumulates the below-block product into y:
// y[i] += Σⱼ P[w+i + j·h]·x[j] for 0 ≤ i < h−w, four panel columns per
// pass. This is the gather-free half of a supernodal forward solve: the
// caller scatters y through the panel's row list afterwards.
func GemvBelowAccum(y []float64, P []float64, h, w int, x []float64) {
	hb := h - w
	if hb <= 0 {
		return
	}
	y = y[:hb]
	j := 0
	for ; j+4 <= w; j += 4 {
		f0, f1, f2, f3 := x[j], x[j+1], x[j+2], x[j+3]
		if f0 == 0 && f1 == 0 && f2 == 0 && f3 == 0 {
			continue
		}
		a0 := P[j*h+w : j*h+h][:len(y)]
		a1 := P[(j+1)*h+w : (j+1)*h+h][:len(y)]
		a2 := P[(j+2)*h+w : (j+2)*h+h][:len(y)]
		a3 := P[(j+3)*h+w : (j+3)*h+h][:len(y)]
		for i := range y {
			y[i] += f0*a0[i] + f1*a1[i] + f2*a2[i] + f3*a3[i]
		}
	}
	for ; j < w; j++ {
		f0 := x[j]
		if f0 == 0 {
			continue
		}
		a0 := P[j*h+w : j*h+h][:len(y)]
		for i := range y {
			y[i] += f0 * a0[i]
		}
	}
}

// GemvBelowTransSub subtracts the transposed below-block product from
// x: x[j] −= Σᵢ P[w+i + j·h]·yb[i], four panel columns of independent
// dot products per pass sharing the streamed yb. This is the gathered
// half of a supernodal backward solve: the caller fills yb from the
// panel's row list first.
func GemvBelowTransSub(x []float64, P []float64, h, w int, yb []float64) {
	hb := h - w
	if hb <= 0 {
		return
	}
	yb = yb[:hb]
	j := 0
	for ; j+4 <= w; j += 4 {
		a0 := P[j*h+w : j*h+h][:len(yb)]
		a1 := P[(j+1)*h+w : (j+1)*h+h][:len(yb)]
		a2 := P[(j+2)*h+w : (j+2)*h+h][:len(yb)]
		a3 := P[(j+3)*h+w : (j+3)*h+h][:len(yb)]
		var s0, s1, s2, s3 float64
		for i, v := range yb {
			s0 += a0[i] * v
			s1 += a1[i] * v
			s2 += a2[i] * v
			s3 += a3[i] * v
		}
		x[j] -= s0
		x[j+1] -= s1
		x[j+2] -= s2
		x[j+3] -= s3
	}
	for ; j < w; j++ {
		a0 := P[j*h+w : j*h+h][:len(yb)]
		var s0 float64
		for i, v := range yb {
			s0 += a0[i] * v
		}
		x[j] -= s0
	}
}
