// Supernodal blocked Cholesky: the BLAS-3 variant of the factorization
// kernels. The columns of L are partitioned into supernodes (contiguous
// panels whose structures nest exactly: the fundamental partition found
// by order.FindSupernodes); each
// panel is stored as one dense column-major trapezoid and factored by a
// dense right-looking kernel, and the sparse update of a panel by its
// descendants becomes a dense rank-k product routed through precomputed
// relative row maps. The dense inner loops — the rank-k trapezoid
// update, the below-block triangular solve, and the panel halves of the
// forward/backward substitutions — live in internal/dense as explicit
// unrolled micro-kernels; this file owns the sparse bookkeeping around
// them.
//
// Everything that depends only on the pattern is computed once in
// analyzeSuper and shared by every numeric factorization: the row
// lists, the update edges (which rows of a descendant land where in
// each ancestor, with the common contiguous case stored as a single
// base offset instead of an index list), and the scatter positions of
// the matrix entries into the panels. A complex LDLᵀ frequency sweep
// re-factorizing the same pattern per point therefore pays no symbolic
// work per point — no binary searches, no relative-map rebuilds.
//
// The arithmetic per entry is a fixed-order sum — updaters ascending,
// columns ascending within a panel, the micro-kernels' quad-then-tail
// k order — so the result is deterministic: bit-identical across runs
// and at every GOMAXPROCS. Parallelism is across panels via a
// dependency-counting task DAG (each panel fires the moment its last
// updater completes; see DESIGN.md §10) and across right-hand sides in
// the blocked solves. Determinism survives the out-of-order panel
// completion because each panel writes only its own packed region in a
// fixed order and reads updater panels only after they are final.
package chol

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// updEdge is one precomputed descendant→ancestor update route: rows
// [lo, mid) of descendant d's row list fall inside the ancestor's
// column range (these drive the update's wC columns), rows [lo, hd)
// feed its hC rows, and the target panel-local row of descendant row
// lo+i is rel[i] — or base+i when the mapping is contiguous, the
// common case in mesh factors, stored without any index list at all.
type updEdge struct {
	d       int32
	lo, mid int32
	base    int32
	rel     []int32
}

// superSymbolic is the supernodal extension of a symbolic analysis: the
// supernode partition plus, per supernode, its full row list, the
// precomputed update edges from its descendants, the scatter positions
// of the analyzed pattern's entries into its panel, and the panel
// precedence DAG. It depends only on the pattern, so one superSymbolic
// is shared by every numeric factorization of that pattern — the real
// Cholesky, each refactorize of a recovery ladder, and every frequency
// point of a complex LDLᵀ sweep.
type superSymbolic struct {
	sym *order.Symbolic
	sn  *order.Supernodes
	// rows holds every supernode's trapezoid row list back to back in
	// one int32 slab; supernode s's list is rows[rowPtr[s]:rowPtr[s+1]]
	// (see rowList), its global row indices in ascending order: the
	// first Width(s) entries are the panel's own columns, the rest the
	// below-diagonal structure of its last column.
	rows   []int32
	rowPtr []int
	// off[s] is the offset of panel s in the packed value storage; panel
	// s occupies off[s+1]-off[s] = h*Width(s) entries for its row count
	// h, column-major (local column j starts at off[s]+j*h).
	off []int
	// updaters[s] lists, ascending by descendant, the precomputed update
	// edges of the supernodes d < s whose below rows intersect s's
	// column range: exactly the dense rank-k products subtracted from
	// panel s, with their row routing resolved at analysis time.
	updaters [][]updEdge
	// scat[s] holds (position, slot) pairs routing the analyzed
	// pattern's lower-triangle entries of s's columns into the panel:
	// panel[slot] = val(position). Flattened as pos0, slot0, pos1, ….
	scat [][]int32
	// leaves counts the leaves of the supernodal elimination tree: the
	// panels with no updater child, all ready at once when a numeric
	// factorization starts, and so the size of its worker pool.
	leaves int
	// dag is the panel-precedence DAG: supernode s depends on exactly
	// its updater descendants (which include its supernodal-etree
	// children — a child's first below row is its parent column), so a
	// panel may fire the moment its last updater completes instead of
	// barriering on a whole level.
	dag *par.DAG
	// trapNNZ counts the trapezoid entries (the structural factor
	// nonzeros: fundamental panels store no zeros); maxRows/maxWidth
	// bound the per-worker dense scratch; edgeInts counts the int32
	// storage of the rel and scat lists for the memory accounting.
	trapNNZ           int
	maxRows, maxWidth int
	edgeInts          int
	flops             float64
}

// analyzeSuper builds the supernodal symbolic structure for the given
// full symmetric pattern and its symbolic analysis, with panels at most
// maxWidth columns wide. Analyze passes order.DefaultMaxWidth; tests
// narrow it to force panel shapes. Numeric
// factorizations against the returned structure must present a matrix
// with exactly this pattern (the scatter routes are resolved here,
// once, not per factorization).
func analyzeSuper(a *sparse.CSR, sym *order.Symbolic, maxWidth int) (*superSymbolic, error) {
	n := a.Rows
	if a.Cols != n || sym.N != n {
		return nil, fmt.Errorf("chol: supernodal dimension mismatch (matrix %dx%d, symbolic %d)", a.Rows, a.Cols, sym.N)
	}
	sn := sym.FindSupernodes(maxWidth)
	ns := sn.NSuper()
	ss := &superSymbolic{sym: sym, sn: sn}

	// Row lists: supernode s's trapezoid has its w own columns plus the
	// below-diagonal structure of its last column, whose size the
	// symbolic column counts already give, so the slab is laid out up
	// front. k belongs to below(s) exactly when the last column of s
	// appears in the elimination reach of row k, i.e. L[k, last(s)] is
	// structurally nonzero; one EReach sweep over all rows (ascending k,
	// so each list comes out sorted) fills every list through its
	// cursor fill[s].
	ss.rowPtr = make([]int, ns+1)
	for s := 0; s < ns; s++ {
		last := sn.Super[s+1] - 1
		ss.rowPtr[s+1] = ss.rowPtr[s] + sn.Width(s) + sym.ColPtr[last+1] - sym.ColPtr[last] - 1
	}
	ss.rows = make([]int32, ss.rowPtr[ns])
	fill := make([]int, ns)
	isLast := make([]bool, n)
	for s := 0; s < ns; s++ {
		c0, w := sn.Super[s], sn.Width(s)
		for j := 0; j < w; j++ {
			ss.rows[ss.rowPtr[s]+j] = int32(c0 + j)
		}
		fill[s] = ss.rowPtr[s] + w
		isLast[c0+w-1] = true
	}
	upper := a.UpperCSC()
	stack := make([]int, n)
	work := make([]int, n)
	for i := range work {
		work[i] = -1
	}
	for k := 0; k < n; k++ {
		top := order.EReach(upper, k, sym.Parent, stack, work)
		for t := top; t < n; t++ {
			if j := stack[t]; isLast[j] {
				d := sn.ColToSuper[j]
				if fill[d] == ss.rowPtr[d+1] {
					return nil, fmt.Errorf("chol: supernode %d has more below rows than its column count", d)
				}
				ss.rows[fill[d]] = int32(k)
				fill[d]++
			}
		}
	}

	ss.off = make([]int, ns+1)
	for s := 0; s < ns; s++ {
		if fill[s] != ss.rowPtr[s+1] {
			return nil, fmt.Errorf("chol: supernode %d has fewer below rows than its column count", s)
		}
		w := sn.Width(s)
		h := ss.rowPtr[s+1] - ss.rowPtr[s]
		ss.off[s+1] = ss.off[s] + h*w
		ss.trapNNZ += h*w - w*(w-1)/2
		if h > ss.maxRows {
			ss.maxRows = h
		}
		if w > ss.maxWidth {
			ss.maxWidth = w
		}
		for j := 0; j < w; j++ {
			hj := float64(h - j)
			ss.flops += 2 * hj * hj
		}
	}

	// updlist[s]: descendants whose below rows land in s's columns.
	// Below lists are ascending, so consecutive rows of one target
	// supernode dedupe with a single "previous" check, and scanning d
	// ascending keeps each updater list ascending.
	updlist := make([][]int32, ns)
	for d := 0; d < ns; d++ {
		w := sn.Width(d)
		prev := -1
		for _, r := range ss.rowList(d)[w:] {
			if t := sn.ColToSuper[r]; t != prev {
				updlist[t] = append(updlist[t], int32(d))
				prev = t
			}
		}
	}

	// Resolve the update routing and matrix scatter once. relmap maps
	// global rows to panel-local indices of the current target; edges
	// whose target rows come out consecutive (the bulk, in mesh
	// factors) collapse to a base offset with no index list.
	relmap := make([]int32, n)
	for i := range relmap {
		relmap[i] = -1
	}
	ss.updaters = make([][]updEdge, ns)
	ss.scat = make([][]int32, ns)
	for s := 0; s < ns; s++ {
		c0, w := sn.Super[s], sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		for i, r := range rows {
			relmap[r] = int32(i)
		}
		edges := make([]updEdge, len(updlist[s]))
		for ei, d32 := range updlist[s] {
			rd := ss.rowList(int(d32))
			lo, _ := slices.BinarySearch(rd, int32(c0))
			mid, _ := slices.BinarySearch(rd, int32(c0+w))
			nr := len(rd) - lo
			e := updEdge{d: d32, lo: int32(lo), mid: int32(mid), base: relmap[rd[lo]]}
			for i := 1; i < nr; i++ {
				if relmap[rd[lo+i]] != e.base+int32(i) {
					rel := make([]int32, nr)
					for q := 0; q < nr; q++ {
						rel[q] = relmap[rd[lo+q]]
					}
					e.rel = rel
					ss.edgeInts += nr
					break
				}
			}
			edges[ei] = e
		}
		ss.updaters[s] = edges
		var sc []int32
		for j := 0; j < w; j++ {
			c := c0 + j
			for p := a.RowPtr[c]; p < a.RowPtr[c+1]; p++ {
				if cc := a.Col[p]; cc >= c {
					sc = append(sc, int32(p), int32(j*h)+relmap[cc])
				}
			}
		}
		ss.scat[s] = sc
		ss.edgeInts += len(sc)
		for _, r := range rows {
			relmap[r] = -1
		}
	}

	// Leaves of the supernodal etree: a supernode is a leaf when no
	// other supernode's last column has its column as parent.
	hasChild := make([]bool, ns)
	for s := 0; s < ns; s++ {
		if p := sym.Parent[sn.Super[s+1]-1]; p >= 0 {
			hasChild[sn.ColToSuper[p]] = true
		}
	}
	for _, c := range hasChild {
		if !c {
			ss.leaves++
		}
	}

	// Panel-precedence DAG from the updater lists: panel s reads exactly
	// the panels of its updater descendants (and, for LDLᵀ, their
	// diagonal segments, written by the same tasks), so those are its
	// complete dependency set. updlist entries are distinct and d < s
	// always, so the graph is acyclic by construction.
	ss.dag = par.NewDAG(updlist)
	return ss, nil
}

// superFactor is the numeric supernodal factor: the packed column-major
// panels, interpreted through the shared symbolic structure. For the
// real Cholesky the panels hold L with its diagonal; for the complex
// LDLᵀ they hold unit-diagonal L with the diagonal in a separate slice.
type superFactor struct {
	ss  *superSymbolic
	val []float64
	// ws is the workspace this factor was produced through (nil for an
	// owning factor): its solve buffers are reused by the multi-RHS
	// solves, which therefore must not run concurrently.
	ws *FactorWorkspace
	// scratchBytes is the transient memory of the numeric run (dense
	// update scratch, DAG run state, solve buffers), reported by Bytes.
	scratchBytes int64
	// solveBufs pools the maxRows buffers of single-vector solves, so
	// repeated calls allocate nothing in steady state and concurrent
	// calls on one factor (Lanczos applying E′ from several goroutines)
	// each hold their own buffer.
	solveBufs sync.Pool
}

// rowList returns supernode s's trapezoid row list, a slice of the
// shared slab.
func (ss *superSymbolic) rowList(s int) []int32 {
	return ss.rows[ss.rowPtr[s]:ss.rowPtr[s+1]]
}

func (sf *superFactor) panel(s int) []float64 {
	return sf.val[sf.ss.off[s]:sf.ss.off[s+1]]
}

// superScratch is the worker-owned scratch of the numeric
// factorization: the dense update block and the original diagonals for
// the pivot check. (The row routing that used to need a length-n
// relative map per worker is precomputed in the superSymbolic now.)
type superScratch struct {
	upd   []float64
	cupd  []complex128
	adiag []float64
}

func (ss *superSymbolic) newScratch(complexUpd bool) *superScratch {
	sc := &superScratch{adiag: make([]float64, ss.maxWidth)}
	if complexUpd {
		sc.cupd = make([]complex128, ss.maxRows*ss.maxWidth)
	} else {
		sc.upd = make([]float64, ss.maxRows*ss.maxWidth)
	}
	return sc
}

// factorize runs the numeric supernodal Cholesky A = LLᵀ against this
// symbolic structure; a must carry exactly the analyzed pattern. Panels
// factor in parallel on the dependency DAG; all arithmetic per panel is
// serial in fixed order, so the factor is bit-identical at every
// GOMAXPROCS. A nil workspace allocates fresh storage (the returned
// factor owns it); a non-nil workspace makes the factorization
// allocation-free in steady state, and the returned factor aliases the
// workspace — valid only until the next factorization through it (see
// FactorWorkspace).
func (ss *superSymbolic) factorize(a *sparse.CSR, ws *FactorWorkspace) (*Factor, error) {
	n := ss.sym.N
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("chol: supernodal factorize dimension mismatch (matrix %dx%d, symbolic %d)", a.Rows, a.Cols, n)
	}
	ns := ss.sn.NSuper()
	workers := par.Workers(ss.leaves)
	sf := &superFactor{ss: ss, ws: ws}
	var errs []error
	var scratch []*superScratch
	if ws != nil {
		sf.val = ws.realPanels()
		errs = ws.errSlots()
		scratch = ws.workerScratch(workers, false)
	} else {
		sf.val = make([]float64, ss.off[ns])
		errs = make([]error, ns)
		scratch = make([]*superScratch, workers)
	}
	body := func(w, s int) {
		if scratch[w] == nil {
			scratch[w] = ss.newScratch(false)
		}
		if inject.Enabled && inject.ShouldFail(inject.CholDAGTask, s) {
			errs[s] = fmt.Errorf("chol: injected task failure at supernode %d", s)
			return
		}
		errs[s] = sf.factorPanel(a, s, scratch[w])
	}
	if err := ss.runDAG(ws, workers, errs, body); err != nil {
		return nil, err
	}
	sf.scratchBytes = ss.runBytes(len(scratch), 8)
	return &Factor{super: sf}, nil
}

// runDAG executes the panel body on the precedence DAG and returns the
// lowest-indexed panel error, if any. There is no early exit — every
// panel runs even after a failure, which keeps the set of executed
// tasks (and so the reported error) deterministic under every
// interleaving; a failed panel's partial values are themselves
// deterministic, so its dependents compute deterministic (discarded)
// results.
func (ss *superSymbolic) runDAG(ws *FactorWorkspace, workers int, errs []error, body func(w, s int)) error {
	if ws != nil {
		par.RunDAGScratch(workers, ss.dag, ws.dagScratch(), body)
	} else {
		par.RunDAG(workers, ss.dag, body)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runBytes totals the scratch of one numeric run on a pool of the given
// number of workers plus the peak per-worker solve buffers the factor's
// solves will lazily create, for the Bytes memory accounting (elemSize
// 8 for real, 16 for complex). Every slot of the pool counts, claimed
// in this run or not, so the figure depends only on the structure and
// the pool size, never on which workers the scheduler happened to use.
func (ss *superSymbolic) runBytes(workers, elemSize int) int64 {
	slot := int64(ss.maxRows)*int64(ss.maxWidth)*int64(elemSize) + int64(ss.maxWidth)*8 // see newScratch
	b := int64(workers) * slot
	b += int64(ss.dag.Len()) * 8    // counts + ready queue
	b += int64(ss.sn.NSuper()) * 16 // error slots
	b += int64(par.Workers(ss.sn.NSuper())) * int64(ss.maxRows) * int64(elemSize)
	return b
}

// scatterSub subtracts the lower trapezoid of the update block C
// (hC×wC column-major) from panel P (leading dimension h) through the
// routing of edge e: C's column j lands in panel column base+j (or
// rel[j]), C's row i in panel row base+i (or rel[i]).
func scatterSub(P []float64, h int, C []float64, hC, wC int, e *updEdge) {
	if e.rel == nil {
		base := int(e.base)
		for j := 0; j < wC; j++ {
			dst := P[(base+j)*h+base:]
			cj := C[j*hC:]
			for i := j; i < hC; i++ {
				dst[i] -= cj[i]
			}
		}
		return
	}
	rel := e.rel
	for j := 0; j < wC; j++ {
		dst := P[int(rel[j])*h:]
		cj := C[j*hC:]
		for i := j; i < hC; i++ {
			dst[rel[i]] -= cj[i]
		}
	}
}

// cscatterSub is scatterSub for the complex panels.
func cscatterSub(P []complex128, h int, C []complex128, hC, wC int, e *updEdge) {
	if e.rel == nil {
		base := int(e.base)
		for j := 0; j < wC; j++ {
			dst := P[(base+j)*h+base:]
			cj := C[j*hC:]
			for i := j; i < hC; i++ {
				dst[i] -= cj[i]
			}
		}
		return
	}
	rel := e.rel
	for j := 0; j < wC; j++ {
		dst := P[int(rel[j])*h:]
		cj := C[j*hC:]
		for i := j; i < hC; i++ {
			dst[rel[i]] -= cj[i]
		}
	}
}

// factorPanel assembles and factors one supernode: scatter A's lower
// triangle through the precomputed routes, subtract the dense rank-k
// products of the updating descendants (ascending), then factor the
// trapezoid — the w×w diagonal block right-looking with the pivot
// checks and fault-injection sites of the up-looking kernel (same
// global column order), the below block by the dense trsm micro-kernel.
func (sf *superFactor) factorPanel(a *sparse.CSR, s int, sc *superScratch) error {
	ss := sf.ss
	c0, w := ss.sn.Super[s], ss.sn.Width(s)
	h := ss.rowPtr[s+1] - ss.rowPtr[s]
	P := sf.panel(s)

	scat := ss.scat[s]
	for q := 0; q < len(scat); q += 2 {
		P[scat[q+1]] = a.Val[scat[q]]
	}
	for j := 0; j < w; j++ {
		sc.adiag[j] = P[j*h+j]
	}

	// Left-looking update: for each descendant edge, form the dense
	// product C = Ld[lo:, :]·Ld[lo:mid, :]ᵀ (lower trapezoid only) in
	// scratch and subtract it through the precomputed routing.
	for ei := range ss.updaters[s] {
		e := &ss.updaters[s][ei]
		hd := ss.rowPtr[e.d+1] - ss.rowPtr[e.d]
		wd := ss.sn.Width(int(e.d))
		lo := int(e.lo)
		hC := hd - lo
		wC := int(e.mid) - lo
		C := sc.upd[:hC*wC]
		clear(C)
		dense.RankKTrapAccum(C, hC, wC, sf.panel(int(e.d)), hd, lo, wd)
		scatterSub(P, h, C, hC, wC, e)
	}

	// Right-looking factorization of the w×w diagonal block; pivot
	// checks and injection sites fire in global column order exactly as
	// in the up-looking kernel.
	for j := 0; j < w; j++ {
		col := P[j*h : j*h+w]
		d := col[j]
		adiag := sc.adiag[j]
		k := c0 + j
		if inject.Enabled {
			d = inject.PoisonValue(inject.CholPoison, k, d)
			if inject.ShouldFail(inject.CholPivot, k) {
				return fmt.Errorf("%w: injected pivot failure at elimination %d", ErrNotPositiveDefinite, k)
			}
		}
		if d <= 0 || d <= 1e-13*adiag || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g (diagonal was %g)", ErrNotPositiveDefinite, k, d, adiag)
		}
		ljj := math.Sqrt(d)
		col[j] = ljj
		for i := j + 1; i < w; i++ {
			col[i] /= ljj
		}
		for c := j + 1; c < w; c++ {
			f := col[c]
			if f == 0 {
				continue
			}
			dst := P[c*h : c*h+w]
			for i := c; i < w; i++ {
				dst[i] -= f * col[i]
			}
		}
	}
	dense.TrsmLLBelow(P, h, w)
	return nil
}

// lsolveRange runs the forward solve for RHS columns [lo, hi), panel by
// panel on the outside so each panel is loaded once per batch. Per
// panel and column: a dense trsv on the contiguous in-block segment,
// then the below-block product accumulated densely in buf (len ≥
// maxRows) and scattered through the row list. A width-1 panel — most
// panels of a 2-D grid's factor — runs the same arithmetic fused: the
// pivot divide, then each below entry's x[r] -= 0 + xⱼ·a[i] straight
// into x, where the 0 + is the cleared accumulator the generic path
// adds the product to (it turns a −0 product into +0) and xⱼ == 0 skips
// the column exactly as the gemv kernel does.
func (sf *superFactor) lsolveRange(rhs []float64, n, lo, hi int, buf []float64) {
	ss := sf.ss
	for s := 0; s < ss.sn.NSuper(); s++ {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		if w == 1 {
			d := P[0]
			below := rows[1:]
			a := P[1:h][:len(below)]
			for c := lo; c < hi; c++ {
				x := rhs[c*n : (c+1)*n]
				xj := x[c0] / d
				x[c0] = xj
				if xj == 0 {
					continue
				}
				for i, r := range below {
					x[r] -= 0 + xj*a[i]
				}
			}
			continue
		}
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			dense.TrsvLowerNonUnit(xseg, P, h, w)
			if hb > 0 {
				yb := buf[:hb]
				clear(yb)
				dense.GemvBelowAccum(yb, P, h, w, xseg)
				for i, r := range rows[w:] {
					x[r] -= yb[i]
				}
			}
		}
	}
}

// ltsolveRange runs the backward solve for RHS columns [lo, hi): per
// panel and column, gather the below entries into buf, subtract the
// transposed below-block product from the in-block segment, then the
// dense transposed trsv. A width-1 panel fuses the gather into one
// sequential dot product Σ a[i]·x[r] from +0, ascending i as the gemv
// kernel's scalar tail sums it, then x[c0] = (x[c0] − s)/d.
func (sf *superFactor) ltsolveRange(rhs []float64, n, lo, hi int, buf []float64) {
	ss := sf.ss
	for s := ss.sn.NSuper() - 1; s >= 0; s-- {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		if w == 1 {
			d := P[0]
			below := rows[1:]
			a := P[1:h][:len(below)]
			for c := lo; c < hi; c++ {
				x := rhs[c*n : (c+1)*n]
				var sum float64
				for i, r := range below {
					sum += a[i] * x[r]
				}
				x[c0] = (x[c0] - sum) / d
			}
			continue
		}
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			if hb > 0 {
				yb := buf[:hb]
				for i, r := range rows[w:] {
					yb[i] = x[r]
				}
				dense.GemvBelowTransSub(xseg, P, h, w, yb)
			}
			dense.TrsvLowerTransNonUnit(xseg, P, h, w)
		}
	}
}

// lsolve solves L x = b in place against the supernodal factor.
func (sf *superFactor) lsolve(x []float64) {
	buf := sf.solveBuf()
	sf.lsolveRange(x, len(x), 0, 1, *buf)
	sf.solveBufs.Put(buf)
}

// ltsolve solves Lᵀ x = b in place.
func (sf *superFactor) ltsolve(x []float64) {
	buf := sf.solveBuf()
	sf.ltsolveRange(x, len(x), 0, 1, *buf)
	sf.solveBufs.Put(buf)
}

// solveBuf takes a maxRows solve buffer from the factor's pool,
// allocating one when the pool is empty. The solves overwrite every
// entry they read, so a reused buffer cannot change a result.
func (sf *superFactor) solveBuf() *[]float64 {
	if buf, ok := sf.solveBufs.Get().(*[]float64); ok {
		return buf
	}
	buf := make([]float64, sf.ss.maxRows)
	return &buf
}

// solveMultiChunk is the hand-out granularity of the blocked multi-RHS
// solves: one atomic claim per batch of right-hand-side columns, and
// each factor panel streams through the cache once per batch instead of
// once per column — the BLAS-3 effect of the blocked solve.
const solveMultiChunk = 8

// solveBufs allocates the slots for the per-worker solve scratch of a
// chunked multi-RHS run; the buffers themselves are created lazily by
// the worker that needs them.
func solveBufs[T float64 | complex128](nrhs int) [][]T {
	return make([][]T, par.Workers(par.Chunks(nrhs, solveMultiChunk)))
}

// solveScratch returns the per-worker solve-buffer slots for a
// multi-RHS run: pooled in the workspace for a workspace-backed factor
// (allocation-free in steady state, not concurrency-safe), fresh
// otherwise.
func (sf *superFactor) solveScratch(nrhs int) [][]float64 {
	if sf.ws != nil {
		return sf.ws.realSolveBufs(par.Workers(par.Chunks(nrhs, solveMultiChunk)))
	}
	return solveBufs[float64](nrhs)
}

// solveScratch is superFactor.solveScratch for the complex factor.
func (sf *superComplexFactor) solveScratch(nrhs int) [][]complex128 {
	if sf.ws != nil {
		return sf.ws.complexSolveBufs(par.Workers(par.Chunks(nrhs, solveMultiChunk)))
	}
	return solveBufs[complex128](nrhs)
}

// SolveMulti solves A X = B in place for nrhs right-hand sides stored
// column-major in rhs (column c occupies rhs[c*n:(c+1)*n]). Each column
// runs exactly the arithmetic of Solve on that column — parallelism is
// only across columns, scratch is worker-owned — so the result is
// bit-identical to nrhs sequential Solve calls at every GOMAXPROCS.
func (f *Factor) SolveMulti(rhs []float64, nrhs int) {
	n := f.order()
	checkMulti(len(rhs), n, nrhs)
	if f.super == nil {
		par.ForChunks(nrhs, solveMultiChunk, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				f.Solve(rhs[c*n : (c+1)*n])
			}
		})
		return
	}
	bufs := f.super.solveScratch(nrhs)
	par.ForChunks(nrhs, solveMultiChunk, func(w, lo, hi int) {
		if bufs[w] == nil {
			bufs[w] = make([]float64, f.super.ss.maxRows)
		}
		f.super.lsolveRange(rhs, n, lo, hi, bufs[w])
		f.super.ltsolveRange(rhs, n, lo, hi, bufs[w])
	})
}

// LSolveMulti solves L Y = B in place for nrhs column-major right-hand
// sides (see SolveMulti for the layout and determinism contract).
func (f *Factor) LSolveMulti(rhs []float64, nrhs int) {
	n := f.order()
	checkMulti(len(rhs), n, nrhs)
	if f.super == nil {
		par.ForChunks(nrhs, solveMultiChunk, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				f.LSolve(rhs[c*n : (c+1)*n])
			}
		})
		return
	}
	bufs := f.super.solveScratch(nrhs)
	par.ForChunks(nrhs, solveMultiChunk, func(w, lo, hi int) {
		if bufs[w] == nil {
			bufs[w] = make([]float64, f.super.ss.maxRows)
		}
		f.super.lsolveRange(rhs, n, lo, hi, bufs[w])
	})
}

// LTSolveMulti solves Lᵀ Y = B in place for nrhs column-major
// right-hand sides (see SolveMulti).
func (f *Factor) LTSolveMulti(rhs []float64, nrhs int) {
	n := f.order()
	checkMulti(len(rhs), n, nrhs)
	if f.super == nil {
		par.ForChunks(nrhs, solveMultiChunk, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				f.LTSolve(rhs[c*n : (c+1)*n])
			}
		})
		return
	}
	bufs := f.super.solveScratch(nrhs)
	par.ForChunks(nrhs, solveMultiChunk, func(w, lo, hi int) {
		if bufs[w] == nil {
			bufs[w] = make([]float64, f.super.ss.maxRows)
		}
		f.super.ltsolveRange(rhs, n, lo, hi, bufs[w])
	})
}

func checkMulti(have, n, nrhs int) {
	if nrhs < 0 || have != n*nrhs {
		panic(fmt.Sprintf("chol: multi-RHS block length %d, want %d columns of %d", have, nrhs, n))
	}
}

// superComplexFactor is the supernodal complex LDLᵀ: unit-lower panels
// (diagonal slots hold 1) plus the diagonal D, sharing the real
// structure's superSymbolic — row lists, update edges, scatter routes —
// across all frequency points of a sweep.
type superComplexFactor struct {
	ss  *superSymbolic
	val []complex128
	d   []complex128
	ws  *FactorWorkspace // see superFactor.ws
}

func (sf *superComplexFactor) panel(s int) []complex128 {
	return sf.val[sf.ss.off[s]:sf.ss.off[s+1]]
}

// factorizeComplex runs the supernodal LDLᵀ of the complex symmetric
// matrix with the given pattern (the one this superSymbolic was
// analyzed for) and entry values supplied per stored pattern position,
// with an optional workspace as in factorize: a workspace-backed
// complex factor aliases the workspace and is valid only until its next
// factorization.
func (ss *superSymbolic) factorizeComplex(pattern *sparse.CSR, val func(p int) complex128, ws *FactorWorkspace) (*ComplexFactor, error) {
	n := ss.sym.N
	if pattern.Rows != n || pattern.Cols != n {
		return nil, fmt.Errorf("chol: supernodal complex dimension mismatch")
	}
	ns := ss.sn.NSuper()
	workers := par.Workers(ss.leaves)
	sf := &superComplexFactor{ss: ss, ws: ws}
	var errs []error
	var scratch []*superScratch
	if ws != nil {
		sf.val, sf.d = ws.complexPanels()
		errs = ws.errSlots()
		scratch = ws.workerScratch(workers, true)
	} else {
		sf.val = make([]complex128, ss.off[ns])
		sf.d = make([]complex128, n)
		errs = make([]error, ns)
		scratch = make([]*superScratch, workers)
	}
	body := func(w, s int) {
		if scratch[w] == nil {
			scratch[w] = ss.newScratch(true)
		}
		if inject.Enabled && inject.ShouldFail(inject.CholDAGTask, s) {
			errs[s] = fmt.Errorf("chol: injected task failure at supernode %d", s)
			return
		}
		errs[s] = sf.factorPanel(val, s, scratch[w])
	}
	if err := ss.runDAG(ws, workers, errs, body); err != nil {
		return nil, err
	}
	return &ComplexFactor{super: sf}, nil
}

func (sf *superComplexFactor) factorPanel(val func(p int) complex128, s int, sc *superScratch) error {
	ss := sf.ss
	c0, w := ss.sn.Super[s], ss.sn.Width(s)
	h := ss.rowPtr[s+1] - ss.rowPtr[s]
	P := sf.panel(s)

	scat := ss.scat[s]
	for q := 0; q < len(scat); q += 2 {
		P[scat[q+1]] = val(int(scat[q]))
	}

	// Update with descendants: C = Ld[lo:, :]·Dd·Ld[lo:mid, :]ᵀ (lower
	// trapezoid), subtracted through the precomputed routing.
	for ei := range ss.updaters[s] {
		e := &ss.updaters[s][ei]
		dsn := int(e.d)
		hd := ss.rowPtr[dsn+1] - ss.rowPtr[dsn]
		wd := ss.sn.Width(dsn)
		d0 := ss.sn.Super[dsn]
		lo := int(e.lo)
		hC := hd - lo
		wC := int(e.mid) - lo
		C := sc.cupd[:hC*wC]
		clear(C)
		dense.CRankKTrapAccum(C, hC, wC, sf.panel(dsn), hd, lo, wd, sf.d[d0:d0+wd])
		cscatterSub(P, h, C, hC, wC, e)
	}

	// Right-looking LDLᵀ of the w×w diagonal block: pivot, normalize
	// the column (unit diagonal), rank-1 update of the remaining block
	// columns; then the below block via the dense trsm micro-kernel.
	for j := 0; j < w; j++ {
		col := P[j*h : j*h+w]
		d := col[j]
		k := c0 + j
		if inject.Enabled && inject.ShouldFail(inject.CholComplexPivot, k) {
			return fmt.Errorf("chol: injected zero pivot %d in complex LDLᵀ", k)
		}
		if cmplx.Abs(d) == 0 || cmplx.IsNaN(d) {
			return fmt.Errorf("chol: zero pivot %d in complex LDLᵀ", k)
		}
		sf.d[k] = d
		col[j] = 1
		for i := j + 1; i < w; i++ {
			col[i] /= d
		}
		for c := j + 1; c < w; c++ {
			f := col[c] * d
			if f == 0 {
				continue
			}
			dst := P[c*h : c*h+w]
			for i := c; i < w; i++ {
				dst[i] -= f * col[i]
			}
		}
	}
	dense.CTrsmLDLBelow(P, h, w, sf.d[c0:c0+w])
	return nil
}

// solveRange runs the supernodal L D Lᵀ solve for RHS columns [lo, hi)
// in place, mirroring the simplicial phase order — full forward
// substitution, then the diagonal, then full backward substitution —
// with each panel's in-block half running as a dense trsv and its
// below half as a dense gemv against buf (len ≥ maxRows).
func (sf *superComplexFactor) solveRange(rhs []complex128, n, lo, hi int, buf []complex128) {
	ss := sf.ss
	ns := ss.sn.NSuper()
	for s := 0; s < ns; s++ {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			dense.CTrsvLowerUnit(xseg, P, h, w)
			if hb > 0 {
				yb := buf[:hb]
				clear(yb)
				dense.CGemvBelowAccum(yb, P, h, w, xseg)
				for i, r := range rows[w:] {
					x[r] -= yb[i]
				}
			}
		}
	}
	for c := lo; c < hi; c++ {
		x := rhs[c*n : (c+1)*n]
		for j := range x {
			x[j] /= sf.d[j]
		}
	}
	for s := ns - 1; s >= 0; s-- {
		c0, w := ss.sn.Super[s], ss.sn.Width(s)
		rows := ss.rowList(s)
		h := len(rows)
		P := sf.panel(s)
		hb := h - w
		for c := lo; c < hi; c++ {
			x := rhs[c*n : (c+1)*n]
			xseg := x[c0 : c0+w]
			if hb > 0 {
				yb := buf[:hb]
				for i, r := range rows[w:] {
					yb[i] = x[r]
				}
				dense.CGemvBelowTransSub(xseg, P, h, w, yb)
			}
			dense.CTrsvLowerTransUnit(xseg, P, h, w)
		}
	}
}

// solve runs the supernodal solve for one right-hand side.
func (sf *superComplexFactor) solve(x []complex128) {
	sf.solveRange(x, len(x), 0, 1, make([]complex128, sf.ss.maxRows))
}

// SolveMulti solves A X = B in place for nrhs column-major right-hand
// sides. Per column the arithmetic is exactly Solve's — the supernodal
// path shares its panel kernels and runs whole chunks of columns
// against each streamed panel, with worker-owned scratch — so the block
// solve is bit-identical to nrhs sequential Solve calls at every
// GOMAXPROCS.
func (f *ComplexFactor) SolveMulti(rhs []complex128, nrhs int) error {
	n := f.order()
	if nrhs < 0 || len(rhs) != n*nrhs {
		return fmt.Errorf("chol: complex multi-RHS block length %d, want %d columns of %d", len(rhs), nrhs, n)
	}
	if f.super != nil {
		bufs := f.super.solveScratch(nrhs)
		par.ForChunks(nrhs, solveMultiChunk, func(w, lo, hi int) {
			if bufs[w] == nil {
				bufs[w] = make([]complex128, f.super.ss.maxRows)
			}
			f.super.solveRange(rhs, n, lo, hi, bufs[w])
		})
		return nil
	}
	errs := make([]error, nrhs)
	par.ForChunks(nrhs, solveMultiChunk, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			errs[c] = f.Solve(rhs[c*n : (c+1)*n])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
