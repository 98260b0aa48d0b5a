package dense

import (
	"fmt"
	"math"

	"repro/internal/resilience/inject"
)

// Selected eigenpairs: the pole analysis keeps only the eigenvalues of
// E′ (or of the projected Ê) at or above λ_c, often a third of the
// spectrum or less, so SymEigAbove computes vectors for those alone:
//
//  1. tred2's Householder reduction without accumulating the transform,
//     the reflectors left in the rows of the work matrix;
//  2. tql2 for eigenvalues only — the same d/e recursion SymEig runs, so
//     every eigenvalue is Float64bits-identical to SymEig's;
//  3. inverse iteration on the tridiagonal T for each kept eigenvalue,
//     reorthogonalized inside clusters of close eigenvalues (LAPACK's
//     dstein), then one blocked back-transform of the k tridiagonal
//     vectors through the stored reflectors, at O(n²k) flops.
//
// At k = n this is about 2n³ flops, plus the reorthogonalization inside
// clusters, against (4/3)n³ for the accumulation plus ~3n³ for tql2's
// rotations, so no k selects the full solve; only an inverse iteration
// that misses dstein's convergence test does.

// Inverse-iteration constants of LAPACK's dstein: at most invIterMaxSteps
// solves per eigenvalue, and invIterExtra more solves once the iterate's
// growth has passed the stopping criterion.
const (
	invIterMaxSteps = 5
	invIterExtra    = 2
	// invIterClusterTol (dstein's ortol, as a fraction of ‖T‖₁): each
	// iterate is orthogonalized against the earlier vectors whose shifts
	// lie within it (see invIterate).
	invIterClusterTol = 1e-3
)

// Machine constants of the tridiagonal solve (LAPACK's dlamch).
const (
	eps64    = 0x1p-52
	safeMin  = 0x1p-1022
	bigScale = 1 / safeMin
)

// SymEigAbove computes the eigenpairs of the symmetric matrix a whose
// eigenvalues are ≥ cutoff: vals descending, bit-identical to the
// matching entries of SymEig's, and the matching orthonormal
// eigenvectors as the rows of vt (len(vals)×n, row c for vals[c]). Each
// vector's sign is normalized: its largest-magnitude entry (the lowest
// index on a tie) is positive. a is destroyed.
//
// If an inverse iteration misses dstein's convergence test after its
// invIterMaxSteps solves, the call finishes SymEig's full solve instead
// from the reduction it already holds — the same bits SymEig returns,
// sign-normalized — and reports why in fallback, which the caller
// records; err is non-nil only when the QL iteration fails.
func SymEigAbove(a *Mat, cutoff float64) (vals []float64, vt *Mat, fallback error, err error) {
	if a.R != a.C {
		return nil, nil, nil, fmt.Errorf("dense: SymEigAbove requires square matrix, got %dx%d", a.R, a.C)
	}
	n := a.R
	if n == 0 {
		return nil, New(0, 0), nil, nil
	}
	h := make([]float64, n)
	e := make([]float64, n)
	transposeSquare(a)
	tred2Reduce(a, h, e)
	d := make([]float64, n)
	tridiagOf(a, d, e)
	// T survives in td/te for inverse iteration and the fallback; the
	// QL iteration consumes d and e.
	td := append([]float64(nil), d...)
	te := append([]float64(nil), e...)
	if err := tql2(nil, d, e); err != nil {
		return nil, nil, nil, err
	}
	k := 0
	for k < n && d[n-1-k] >= cutoff {
		k++
	}
	vals = make([]float64, k)
	for c := range vals {
		vals[c] = d[n-1-c]
	}
	vt = New(k, n)
	if j, ok := invIterate(td, te, d[n-k:], vt.Data); !ok {
		fallback = fmt.Errorf("dense: inverse iteration for eigenvalue %d of %d (%g) did not converge in %d steps",
			n-k+j, n, d[n-k+j], invIterMaxSteps)
		tred2Accumulate(a, h, te)
		if err := tql2(a, h, te); err != nil {
			return nil, nil, nil, err
		}
		for c := 0; c < k; c++ {
			copy(vt.Row(c), a.Row(n-1-c))
		}
	} else {
		backTransform(a, h, vt.Data, k)
	}
	for c := 0; c < k; c++ {
		normalizeSign(vt.Row(c))
	}
	return vals, vt, fallback, nil
}

// normalizeSign flips x so that its largest-magnitude entry, the first
// one on a tie, is positive.
func normalizeSign(x []float64) {
	if x[idamax(x)] < 0 {
		for i := range x {
			x[i] = -x[i]
		}
	}
}

// idamax returns the index of the first entry of largest magnitude.
func idamax(x []float64) int {
	jmax, vmax := 0, -1.0
	for i, v := range x {
		if av := math.Abs(v); av > vmax {
			jmax, vmax = i, av
		}
	}
	return jmax
}

// startVector fills x with the fixed start vector of the q-th inverse
// iteration: consecutive stretches of one additive golden-ratio
// sequence, centred on zero. No random source is involved, so the
// vectors (and every bit derived from them) are the same on every run,
// while distinct q still start from distinct directions, as dstein's
// continuing random stream does.
func startVector(x []float64, q int) {
	const g = 0.6180339887498949 // golden-ratio conjugate
	n := len(x)
	for i := range x {
		v := float64(q*n+i+1) * g
		x[i] = v - math.Floor(v) - 0.5
	}
}

// invIterate computes by inverse iteration the eigenvectors of the
// symmetric tridiagonal T (diagonal d, subdiagonal e[1..n-1], tql2's
// layout) for the ascending eigenvalues lam, the top len(lam) of T's
// spectrum, into the rows of zt: row k-1-q for lam[q], so the rows
// descend. It is LAPACK's dstein on the unsplit T — LU with partial
// pivoting (lagtf), a scaled right-hand side, the perturbed solve
// (lagts), a nudge of eigenvalues closer than 10ε|λ| to the previous
// one, and Gram–Schmidt against the cluster's earlier vectors after
// every solve — with fixed start vectors in place of its random ones,
// and with one change to the cluster: dstein orthogonalizes against
// every vector since its chain of gaps below ortol began, this against
// those whose shifts lie within ortol of the current one. Vectors
// farther apart are orthogonal to working accuracy without it, the
// margin dstein itself allows between clusters. On a graded spectrum,
// whose small end chains hundreds of eigenvalues together, the cost
// then grows with the number of eigenvalues within ortol of each, not
// with the square of the chain. On failure it returns the index q of
// the eigenvalue whose iteration did not converge and false.
func invIterate(d, e, lam []float64, zt []float64) (int, bool) {
	n, k := len(d), len(lam)
	if k == 0 {
		return 0, true
	}
	if n == 1 {
		zt[0] = 1
		return 0, true
	}
	off := e[1:n] // off[i] couples rows i and i+1
	onenrm := math.Abs(d[0]) + math.Abs(off[0])
	onenrm = math.Max(onenrm, math.Abs(d[n-1])+math.Abs(off[n-2]))
	for i := 1; i < n-1; i++ {
		onenrm = math.Max(onenrm, math.Abs(d[i])+math.Abs(off[i-1])+math.Abs(off[i]))
	}
	if onenrm == 0 {
		// T = 0: every vector is an eigenvector; any positive scale
		// keeps the scaled right-hand side away from zero.
		onenrm = 1
	}
	ortol := invIterClusterTol * onenrm
	dtpcrt := math.Sqrt(0.1 / float64(n))

	ua := make([]float64, n)
	ub := make([]float64, n-1)
	lc := make([]float64, n-1)
	ud := make([]float64, n-1)
	piv := make([]bool, n-1)
	x := make([]float64, n)
	shifts := make([]float64, k)
	gpind := 0
	for q := 0; q < k; q++ {
		xj := lam[q]
		if q > 0 {
			if pertol := 10 * math.Abs(eps64*xj); xj-shifts[q-1] < pertol {
				xj = shifts[q-1] + pertol
			}
			for gpind < q && xj-shifts[gpind] > ortol {
				gpind++
			}
		}
		shifts[q] = xj
		if inject.Enabled && inject.ShouldFail(inject.DenseInvIter, q) {
			return q, false
		}
		startVector(x, q)
		copy(ua, d)
		copy(ub, off)
		copy(lc, off)
		lagtf(ua, xj, ub, lc, ud, piv)
		tol := 0.0
		converged := false
		nrm := 0.0
		for nrmchk, its := 0, 1; its <= invIterMaxSteps; its++ {
			scl := float64(n) * onenrm * math.Max(eps64, math.Abs(ua[n-1])) / math.Abs(x[idamax(x)])
			for i := range x {
				x[i] *= scl
			}
			lagts(ua, ub, lc, ud, piv, x, &tol)
			reorth(x, zt[(k-q)*n:(k-gpind)*n])
			nrm = math.Abs(x[idamax(x)])
			if !(nrm > 0) || math.IsInf(nrm, 0) {
				return q, false // a vanished or non-finite iterate
			}
			if nrm < dtpcrt {
				continue
			}
			nrmchk++
			if nrmchk > invIterExtra {
				converged = true
				break
			}
		}
		if !converged {
			return q, false
		}
		// ‖x‖₂ scaled by its largest entry, which cannot overflow.
		s := 0.0
		for _, v := range x {
			v /= nrm
			s += v * v
		}
		scl := 1 / (nrm * math.Sqrt(s))
		z := zt[(k-1-q)*n : (k-q)*n]
		for i, v := range x {
			z[i] = v * scl
		}
	}
	return 0, true
}

// reorth removes from x its components along the orthonormal rows of z
// (the cluster's vectors computed so far), four rows per pass: the four
// dot products share each load of x, and so do the four updates. Across
// passes this is modified Gram–Schmidt; within a pass the four rows,
// orthogonal to working precision, are projected out together.
func reorth(x, z []float64) {
	n := len(x)
	rows := len(z) / n
	p := 0
	for ; p+4 <= rows; p += 4 {
		z0 := z[p*n : (p+1)*n]
		z1 := z[(p+1)*n : (p+2)*n]
		z2 := z[(p+2)*n : (p+3)*n]
		z3 := z[(p+3)*n : (p+4)*n]
		var s0, s1, s2, s3 float64
		for i, v := range x {
			s0 += z0[i] * v
			s1 += z1[i] * v
			s2 += z2[i] * v
			s3 += z3[i] * v
		}
		for i := range x {
			x[i] -= s0*z0[i] + s1*z1[i] + s2*z2[i] + s3*z3[i]
		}
	}
	for ; p < rows; p++ {
		zp := z[p*n : (p+1)*n]
		s := 0.0
		for i, v := range zp {
			s += v * x[i]
		}
		for i, v := range zp {
			x[i] -= s * v
		}
	}
}

// lagtf factors T − λI = PLU with partial pivoting (LAPACK's dlagtf) for
// the tridiagonal with diagonal a (length n) and super- and subdiagonals
// b and c (length n−1). On return a holds U's diagonal, b its first
// superdiagonal, d its second (d[n−2] unused), c the multipliers of L,
// and piv[k] whether rows k and k+1 were interchanged.
func lagtf(a []float64, lambda float64, b, c, d []float64, piv []bool) {
	n := len(a)
	a[0] -= lambda
	if n == 1 {
		return
	}
	scale1 := math.Abs(a[0]) + math.Abs(b[0])
	for k := 0; k < n-1; k++ {
		a[k+1] -= lambda
		scale2 := math.Abs(c[k]) + math.Abs(a[k+1])
		if k < n-2 {
			scale2 += math.Abs(b[k+1])
		}
		piv1 := 0.0
		if a[k] != 0 {
			piv1 = math.Abs(a[k]) / scale1
		}
		d[k] = 0
		switch {
		case c[k] == 0:
			piv[k] = false
			scale1 = scale2
		case math.Abs(c[k])/scale2 <= piv1:
			piv[k] = false
			scale1 = scale2
			c[k] /= a[k]
			a[k+1] -= c[k] * b[k]
		default:
			piv[k] = true
			mult := a[k] / c[k]
			a[k] = c[k]
			temp := a[k+1]
			a[k+1] = b[k] - mult*temp
			if k < n-2 {
				d[k] = b[k+1]
				b[k+1] = -mult * d[k]
			}
			b[k] = temp
			c[k] = mult
		}
	}
}

// lagts solves (T − λI)x = y in place against lagtf's factors, perturbing
// a pivot whose quotient would overflow by ±tol, doubled until it does
// not (LAPACK's dlagts with job = −1). A non-positive *tol is replaced on
// first use by ε times the largest entry of U.
func lagts(a, b, c, d []float64, piv []bool, y []float64, tol *float64) {
	n := len(a)
	if *tol <= 0 {
		t := math.Abs(a[0])
		if n > 1 {
			t = math.Max(t, math.Max(math.Abs(a[1]), math.Abs(b[0])))
		}
		for k := 2; k < n; k++ {
			t = math.Max(t, math.Max(math.Abs(a[k]), math.Max(math.Abs(b[k-1]), math.Abs(d[k-2]))))
		}
		t *= eps64
		if t == 0 {
			t = eps64
		}
		*tol = t
	}
	for k := 1; k < n; k++ {
		if !piv[k-1] {
			y[k] -= c[k-1] * y[k-1]
		} else {
			temp := y[k-1]
			y[k-1] = y[k]
			y[k] = temp - c[k-1]*y[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		temp := y[k]
		if k <= n-3 {
			temp = y[k] - b[k]*y[k+1] - d[k]*y[k+2]
		} else if k == n-2 {
			temp = y[k] - b[k]*y[k+1]
		}
		ak := a[k]
		pert := math.Copysign(*tol, ak)
		for {
			absak := math.Abs(ak)
			if absak < 1 {
				if absak < safeMin {
					if absak == 0 || math.Abs(temp)*safeMin > absak {
						ak += pert
						pert *= 2
						continue
					}
					temp *= bigScale
					ak *= bigScale
				} else if math.Abs(temp) > absak*bigScale {
					ak += pert
					pert *= 2
					continue
				}
			}
			break
		}
		y[k] = temp / ak
	}
}

// backTransform maps the k tridiagonal eigenvectors in the rows of zt
// (k×n) to eigenvectors of the original matrix, x = Q z with
// Q = Hₙ₋₁·…·H₁ from tred2Reduce's reflectors (rows of w, scalars h), so
// the reflectors apply to each z in ascending order. The reflectors go
// in panels of about backPanelBytes, each applied to every vector before
// the next, so a panel stays in cache while the vectors stream past it;
// within a panel four vectors share each pass over a reflector, so uᵢ
// streams once per four dot products and four updates. Each vector sees
// the same operation sequence however the work is blocked.
func backTransform(w *Mat, h []float64, zt []float64, k int) {
	n := w.R
	for lo := 1; lo < n; {
		hi, bytes := lo, 0
		for hi < n && (hi == lo || bytes+8*hi <= backPanelBytes) {
			bytes += 8 * hi
			hi++
		}
		c := 0
		for ; c+4 <= k; c += 4 {
			reflect4(w, h, lo, hi, zt[c*n:(c+4)*n])
		}
		for ; c < k; c++ {
			reflect1(w, h, lo, hi, zt[c*n:(c+1)*n])
		}
		lo = hi
	}
}

// backPanelBytes sizes backTransform's reflector panels to sit in a
// typical per-core L2 cache beside four vectors.
const backPanelBytes = 256 << 10

// reflect4 applies reflectors lo..hi-1 in ascending order to the four
// length-n vectors packed in z.
func reflect4(w *Mat, h []float64, lo, hi int, z []float64) {
	n := w.R
	a := w.Data
	z0, z1, z2, z3 := z[:n], z[n:2*n], z[2*n:3*n], z[3*n:4*n]
	for i := lo; i < hi; i++ {
		hv := h[i]
		if hv == 0 {
			continue
		}
		u := a[i*n : i*n+i]
		x0, x1, x2, x3 := z0[:len(u)], z1[:len(u)], z2[:len(u)], z3[:len(u)]
		var g0, g1, g2, g3 float64
		for r, v := range u {
			g0 += v * x0[r]
			g1 += v * x1[r]
			g2 += v * x2[r]
			g3 += v * x3[r]
		}
		g0, g1, g2, g3 = g0/hv, g1/hv, g2/hv, g3/hv
		for r, v := range u {
			x0[r] -= g0 * v
			x1[r] -= g1 * v
			x2[r] -= g2 * v
			x3[r] -= g3 * v
		}
	}
}

// reflect1 is reflect4 for one vector.
func reflect1(w *Mat, h []float64, lo, hi int, z []float64) {
	n := w.R
	a := w.Data
	for i := lo; i < hi; i++ {
		hv := h[i]
		if hv == 0 {
			continue
		}
		u := a[i*n : i*n+i]
		x := z[:len(u)]
		g := 0.0
		for r, v := range u {
			g += v * x[r]
		}
		g /= hv
		for r, v := range u {
			x[r] -= g * v
		}
	}
}
