// FactorWorkspace: pooled numeric state for repeated supernodal
// factorizations of one symbolic structure. An AC verification sweep
// re-factorizes D + sE at every frequency point; without pooling, each
// point allocates the packed panels (hundreds of megabytes at 10⁶
// nodes), the per-worker dense scratch, the DAG run state, and the
// solve buffers, all of which have pattern-determined sizes that never
// change across points. A workspace owns all of them and hands them
// back to every factorization threaded through it, so the steady state
// of a sweep allocates nothing.
package chol

import (
	"repro/internal/par"
)

// FactorWorkspace holds the reusable numeric buffers of supernodal
// factorizations against one Analysis. Buffers are created lazily
// on first use (a real-only caller never pays for complex panels) and
// retained across factorizations.
//
// A workspace is NOT safe for concurrent use: it serves one
// factorization at a time, and a Factor or ComplexFactor produced
// through it aliases the workspace's buffers — it remains valid only
// until the next factorization through the same workspace, and its
// multi-RHS solves draw scratch from the workspace, so they must not
// overlap each other either. Use one workspace per worker (the YSweep
// pattern); the shared Analysis is immutable and safe to share.
type FactorWorkspace struct {
	ss *superSymbolic

	val  []float64    // real packed panels
	cval []complex128 // complex packed panels
	d    []complex128 // complex LDLᵀ diagonal

	errs     []error         // per-supernode error slots
	scratchR []*superScratch // worker-owned dense update scratch, real
	scratchC []*superScratch // worker-owned dense update scratch, complex
	dagSc    *par.DAGScratch // DAG run state (counts + ready queue)

	solveF [][]float64    // per-worker solve buffers, real
	solveC [][]complex128 // per-worker solve buffers, complex
}

// realPanels returns the packed real panel storage, zeroed: panel slots
// outside the analyzed pattern (elimination fill) are
// never written by the scatter phase and must start at zero.
func (ws *FactorWorkspace) realPanels() []float64 {
	n := ws.ss.off[ws.ss.sn.NSuper()]
	if ws.val == nil {
		ws.val = make([]float64, n)
		return ws.val
	}
	clear(ws.val)
	return ws.val
}

// complexPanels returns the packed complex panel storage and the
// diagonal, both zeroed (see realPanels).
func (ws *FactorWorkspace) complexPanels() ([]complex128, []complex128) {
	if ws.cval == nil {
		ws.cval = make([]complex128, ws.ss.off[ws.ss.sn.NSuper()])
		ws.d = make([]complex128, ws.ss.sym.N)
		return ws.cval, ws.d
	}
	clear(ws.cval)
	clear(ws.d)
	return ws.cval, ws.d
}

// errSlots returns the per-supernode error slice. No clearing is
// needed: every panel task writes its slot unconditionally before any
// slot is read.
func (ws *FactorWorkspace) errSlots() []error {
	if ws.errs == nil {
		ws.errs = make([]error, ws.ss.sn.NSuper())
	}
	return ws.errs
}

// workerScratch returns the per-worker dense scratch slots for the
// given pool size, growing the slice if a larger pool appears. Slots
// are filled lazily by the worker that claims them, exactly as in the
// unpooled path.
func (ws *FactorWorkspace) workerScratch(workers int, complexUpd bool) []*superScratch {
	sl := &ws.scratchR
	if complexUpd {
		sl = &ws.scratchC
	}
	for len(*sl) < workers {
		*sl = append(*sl, nil)
	}
	return (*sl)[:workers]
}

// dagScratch returns the pooled DAG run state.
func (ws *FactorWorkspace) dagScratch() *par.DAGScratch {
	if ws.dagSc == nil {
		ws.dagSc = ws.ss.dag.NewScratch()
	}
	return ws.dagSc
}

// realSolveBufs returns the per-worker solve-buffer slots for a
// multi-RHS real solve (slots filled lazily, as with workerScratch).
func (ws *FactorWorkspace) realSolveBufs(workers int) [][]float64 {
	for len(ws.solveF) < workers {
		ws.solveF = append(ws.solveF, nil)
	}
	return ws.solveF[:workers]
}

// complexSolveBufs is realSolveBufs for complex solves.
func (ws *FactorWorkspace) complexSolveBufs(workers int) [][]complex128 {
	for len(ws.solveC) < workers {
		ws.solveC = append(ws.solveC, nil)
	}
	return ws.solveC[:workers]
}
