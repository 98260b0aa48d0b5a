package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/check"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// ErrNoConvergence is the sentinel wrapped by every Newton convergence
// failure, so callers can distinguish a stalled iteration (retryable by
// the DC recovery ladder) from structural problems like a singular MNA
// matrix.
var ErrNoConvergence = errors.New("sim: Newton did not converge")

// checkMNASymmetry asserts (under -tags pactcheck) that the assembled MNA
// matrix is numerically symmetric. Every stamp except the MOSFET's —
// resistor, capacitor, inductor and source branch rows, diode
// linearization, gmin — is symmetric, so the invariant holds exactly when
// the circuit has no MOSFETs. The CSC arrays reinterpreted as CSR
// describe the transpose, whose symmetry is the same property.
func (c *Circuit) checkMNASymmetry(ctx string, vals []float64) {
	if !check.Enabled || len(c.mosfets) > 0 {
		return
	}
	check.SymmetricCSR(ctx, &sparse.CSR{
		Rows: c.nUnknown, Cols: c.nUnknown,
		RowPtr: c.colPtr, Col: c.rowIdx, Val: vals,
	}, check.DefaultTol)
}

// DCResult is a DC operating point.
type DCResult struct {
	// X holds node voltages then source branch currents.
	X     []float64
	Iters int
}

// Voltage returns the DC voltage of a named node.
func (c *Circuit) Voltage(res []float64, name string) (float64, error) {
	idx, ok := c.NodeIndex(name)
	if !ok {
		return 0, fmt.Errorf("sim: unknown node %q", name)
	}
	if idx < 0 {
		return 0, nil
	}
	return res[idx], nil
}

// loadStatic stamps the time-independent linear parts plus nonlinear
// linearizations at x, with sources scaled by srcScale and waveforms
// evaluated at time t (t < 0 means DC: waveform sources use their value
// at t=0 of the waveform or DC field).
func (c *Circuit) loadStatic(vals, rhs, x []float64, srcScale, gmin, t float64) {
	for i := range vals {
		vals[i] = 0
	}
	for i := range rhs {
		rhs[i] = 0
	}
	for k := range c.resistors {
		stampG(vals, c.resistors[k].pos, c.resistors[k].g)
	}
	for k := range c.vsrcs {
		v := &c.vsrcs[k]
		for _, p := range []int{v.pos[0], v.pos[1]} {
			if p >= 0 {
				vals[p] += 1
			}
		}
		for _, p := range []int{v.pos[2], v.pos[3]} {
			if p >= 0 {
				vals[p] -= 1
			}
		}
		val := v.src.DC
		if t >= 0 && v.src.Wave != nil {
			val = v.src.At(t)
		}
		rhs[v.br] = srcScale * val
	}
	for k := range c.isrcs {
		is := &c.isrcs[k]
		val := is.src.DC
		if t >= 0 && is.src.Wave != nil {
			val = is.src.At(t)
		}
		// Positive source current flows from N1 through the source to N2:
		// it leaves the circuit at N1 and returns at N2.
		addRHS(rhs, is.i, -srcScale*val)
		addRHS(rhs, is.j, srcScale*val)
	}
	// Inductor branch relation: at DC an inductor is a short
	// (v_i − v_j = 0); transient and AC loads add the reactive term on
	// the branch diagonal on top of this pattern.
	for k := range c.inductors {
		l := &c.inductors[k]
		if l.pos[0] >= 0 {
			vals[l.pos[0]] += 1 // KCL at i: +i_br
		}
		if l.pos[1] >= 0 {
			vals[l.pos[1]] += 1 // branch: +v_i
		}
		if l.pos[2] >= 0 {
			vals[l.pos[2]] -= 1 // KCL at j: −i_br
		}
		if l.pos[3] >= 0 {
			vals[l.pos[3]] -= 1 // branch: −v_j
		}
	}
	for k := range c.diodes {
		c.diodes[k].load(vals, rhs, x)
	}
	for k := range c.mosfets {
		c.mosfets[k].load(vals, rhs, x)
	}
	for i := 0; i < c.nNodes; i++ {
		vals[c.diagPos[i]] += gmin
	}
}

// newton iterates the Newton–Raphson loop on top of an arbitrary loader.
// load must fill vals/rhs given the candidate x.
func (c *Circuit) newton(x []float64, load func(vals, rhs, x []float64), maxIter int) (int, error) {
	return c.newtonCtx(context.Background(), x, load, maxIter)
}

// newtonCtx is newton with a cooperative cancellation check between
// iterations; a canceled loop reports the context error so ladders do
// not retry through a deadline.
func (c *Circuit) newtonCtx(ctx context.Context, x []float64, load func(vals, rhs, x []float64), maxIter int) (int, error) {
	n := c.nUnknown
	vals := make([]float64, len(c.rowIdx))
	rhs := make([]float64, n)
	const (
		absTol  = 1e-9
		relTol  = 1e-6
		maxStep = 1.0 // volts per Newton step (damping)
	)
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iter - 1, fmt.Errorf("sim: Newton canceled at iteration %d: %w", iter, err)
		}
		if inject.Enabled && inject.ShouldFail(inject.NewtonIter, iter-1) {
			return iter, fmt.Errorf("%w: injected stall at iteration %d of %d", ErrNoConvergence, iter, maxIter)
		}
		load(vals, rhs, x)
		c.checkMNASymmetry("sim Newton MNA matrix", vals)
		lu, err := LUFactor(n, c.colPtr, c.rowIdx, vals, c.q, math.Abs, 0.1)
		if err != nil {
			return iter, fmt.Errorf("sim: %w", err)
		}
		c.Stats.Factorizations++
		c.Stats.LUNNZ = lu.NNZ()
		if b := int64(lu.NNZ() * 16); b > c.Stats.PeakBytes {
			c.Stats.PeakBytes = b
		}
		lu.Solve(rhs) // rhs now holds x_new
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			d := rhs[i] - x[i]
			if i < c.nNodes {
				if d > maxStep {
					d = maxStep
				} else if d < -maxStep {
					d = -maxStep
				}
			}
			if a := math.Abs(d); a > maxDelta && i < c.nNodes {
				maxDelta = a
			}
			x[i] += d
		}
		c.Stats.NewtonIters++
		if maxDelta < absTol+relTol*maxAbsVec(x[:c.nNodes]) {
			return iter, nil
		}
	}
	return maxIter, fmt.Errorf("%w in %d iterations", ErrNoConvergence, maxIter)
}

func maxAbsVec(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// DC computes the DC operating point with gmin stepping and, failing
// that, source stepping.
func (c *Circuit) DC() (*DCResult, error) {
	return c.DCCtx(context.Background())
}

// DCCtx is DC with cooperative cancellation and a recorded recovery
// ladder. A direct Newton failure escalates to gmin stepping, then to
// source stepping; the rung that rescues the solve is reported in
// c.Stats.Recoveries, and if every rung fails the terminal error is a
// resilience.StageError carrying the full attempt history. Cancellation
// is never retried through — a canceled rung surrenders immediately.
func (c *Circuit) DCCtx(ctx context.Context) (*DCResult, error) {
	x := make([]float64, c.nUnknown)
	loader := func(gmin, scale float64) func(vals, rhs, x []float64) {
		return func(vals, rhs, xx []float64) {
			c.loadStatic(vals, rhs, xx, scale, gmin, -1)
		}
	}
	it, derr := c.newtonCtx(ctx, x, loader(c.Gmin, 1), 100)
	if derr == nil {
		return &DCResult{X: x, Iters: it}, nil
	}
	if resilience.IsCancellation(derr) {
		return nil, resilience.Canceled(resilience.StageNewton, ctx)
	}
	attempts := []resilience.Attempt{{Action: "newton(direct)", Err: derr}}
	// Gmin stepping: continuation in the diagonal damping, each solve warm
	// starting the next, then a final solve at the nominal gmin.
	for i := range x {
		x[i] = 0
	}
	total := 0
	var gerr error
	for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10} {
		it, err := c.newtonCtx(ctx, x, loader(g, 1), 120)
		total += it
		if err != nil {
			gerr = fmt.Errorf("at gmin %g: %w", g, err)
			break
		}
	}
	if gerr == nil {
		it, err := c.newtonCtx(ctx, x, loader(c.Gmin, 1), 150)
		if err == nil {
			c.Stats.Recoveries = append(c.Stats.Recoveries, resilience.Recovery{
				Stage:    resilience.StageNewton,
				Action:   "gmin stepping",
				Attempts: len(attempts) + 1,
				Reason:   derr.Error(),
			})
			return &DCResult{X: x, Iters: total + it}, nil
		}
		gerr = err
	}
	if resilience.IsCancellation(gerr) {
		return nil, resilience.Canceled(resilience.StageNewton, ctx)
	}
	attempts = append(attempts, resilience.Attempt{Action: "gmin stepping", Err: gerr})
	// Source stepping: continuation in the excitation, ramping every
	// source from 10% to full strength under a tiny fixed gmin.
	for i := range x {
		x[i] = 0
	}
	total = 0
	var serr error
	for _, sc := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		it, err := c.newtonCtx(ctx, x, loader(1e-9, sc), 150)
		total += it
		if err != nil {
			serr = fmt.Errorf("at source scale %g: %w", sc, err)
			break
		}
	}
	if serr == nil {
		it, err := c.newtonCtx(ctx, x, loader(c.Gmin, 1), 150)
		if err == nil {
			c.Stats.Recoveries = append(c.Stats.Recoveries, resilience.Recovery{
				Stage:    resilience.StageNewton,
				Action:   "source stepping",
				Attempts: len(attempts) + 1,
				Reason:   derr.Error(),
			})
			return &DCResult{X: x, Iters: total + it}, nil
		}
		serr = err
	}
	if resilience.IsCancellation(serr) {
		return nil, resilience.Canceled(resilience.StageNewton, ctx)
	}
	attempts = append(attempts, resilience.Attempt{Action: "source stepping", Err: serr})
	return nil, resilience.NewStageError(resilience.StageNewton,
		"gmin and source stepping exhausted", attempts, derr)
}

// TranResult is a transient waveform set.
type TranResult struct {
	T []float64
	X [][]float64 // per time point, the unknown vector
	c *Circuit
}

// Waveform returns the voltage waveform of a named node.
func (r *TranResult) Waveform(name string) ([]float64, error) {
	idx, ok := r.c.NodeIndex(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown node %q", name)
	}
	out := make([]float64, len(r.T))
	if idx >= 0 {
		for k, x := range r.X {
			out[k] = x[idx]
		}
	}
	return out, nil
}

// At linearly interpolates the voltage of node idx at time t.
func (r *TranResult) At(idx int, t float64) float64 {
	if len(r.T) == 0 {
		return 0
	}
	if t <= r.T[0] {
		return value(r.X[0], idx)
	}
	if t >= r.T[len(r.T)-1] {
		return value(r.X[len(r.T)-1], idx)
	}
	lo, hi := 0, len(r.T)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (t - r.T[lo]) / (r.T[hi] - r.T[lo])
	return value(r.X[lo], idx)*(1-f) + value(r.X[hi], idx)*f
}

func value(x []float64, idx int) float64 {
	if idx < 0 {
		return 0
	}
	return x[idx]
}

// Transient runs a fixed-step transient analysis from the DC operating
// point at t=0 to tstop with step h, using trapezoidal integration with a
// backward-Euler first step. If Newton fails at a step the step is
// recursively halved (up to 10 levels).
func (c *Circuit) Transient(tstop, h float64) (*TranResult, error) {
	return c.TransientCtx(context.Background(), tstop, h)
}

// TransientCtx is Transient with cooperative cancellation between time
// steps (and between Newton iterations within a step): a canceled run
// returns a resilience.StageError for the transient stage instead of a
// truncated waveform.
func (c *Circuit) TransientCtx(ctx context.Context, tstop, h float64) (*TranResult, error) {
	if h <= 0 || tstop <= 0 {
		return nil, fmt.Errorf("sim: transient needs positive step and stop time")
	}
	op, err := c.DCCtx(ctx)
	if err != nil {
		if resilience.IsCancellation(err) {
			return nil, resilience.Canceled(resilience.StageTransient, ctx)
		}
		return nil, fmt.Errorf("sim: transient operating point: %w", err)
	}
	x := op.X
	// Initialize capacitor states from the OP (zero current).
	for k := range c.caps {
		cp := &c.caps[k]
		cp.vPrev = nodeV(x, cp.i) - nodeV(x, cp.j)
		cp.iPrev = 0
	}
	res := &TranResult{c: c}
	res.T = append(res.T, 0)
	res.X = append(res.X, append([]float64(nil), x...))
	t := 0.0
	firstStep := true
	for t < tstop-1e-15*tstop {
		step := h
		if t+step > tstop {
			step = tstop - t
		}
		if err := c.advance(ctx, x, t, step, firstStep, 0); err != nil {
			if resilience.IsCancellation(err) {
				return nil, resilience.Canceled(resilience.StageTransient, ctx)
			}
			return nil, fmt.Errorf("sim: transient at t=%g: %w", t, err)
		}
		firstStep = false
		t += step
		c.Stats.Steps++
		res.T = append(res.T, t)
		res.X = append(res.X, append([]float64(nil), x...))
	}
	return res, nil
}

// singleStep performs exactly one integration step of size h starting at
// time t, updating x and the capacitor states on success. It does not
// retry; callers handle step control.
func (c *Circuit) singleStep(ctx context.Context, x []float64, t, h float64, useBE bool) error {
	xTry := append([]float64(nil), x...)
	tNext := t + h
	// Inductor history from the incoming solution: branch current is the
	// branch unknown, branch voltage comes from the node voltages.
	indI := make([]float64, len(c.inductors))
	indV := make([]float64, len(c.inductors))
	for k := range c.inductors {
		l := &c.inductors[k]
		indI[k] = x[l.br]
		indV[k] = nodeV(x, l.i) - nodeV(x, l.j)
	}
	load := func(vals, rhs, xx []float64) {
		c.loadStatic(vals, rhs, xx, 1, c.Gmin, tNext)
		for k := range c.caps {
			cp := &c.caps[k]
			if cp.c == 0 {
				continue
			}
			var geq, ieq float64
			if useBE {
				geq = cp.c / h
				ieq = geq * cp.vPrev
			} else {
				geq = 2 * cp.c / h
				ieq = geq*cp.vPrev + cp.iPrev
			}
			stampG(vals, cp.pos, geq)
			addRHS(rhs, cp.i, ieq)
			addRHS(rhs, cp.j, -ieq)
		}
		// Inductor companion: trapezoidal
		//   v_i − v_j − (2L/h)·i_new = −v_old − (2L/h)·i_old,
		// backward Euler
		//   v_i − v_j − (L/h)·i_new = −(L/h)·i_old.
		for k := range c.inductors {
			l := &c.inductors[k]
			var zeq, veq float64
			if useBE {
				zeq = l.l / h
				veq = -zeq * indI[k]
			} else {
				zeq = 2 * l.l / h
				veq = -zeq*indI[k] - indV[k]
			}
			if l.pos[4] >= 0 {
				vals[l.pos[4]] -= zeq
			}
			rhs[l.br] += veq
		}
	}
	if _, err := c.newtonCtx(ctx, xTry, load, 60); err != nil {
		return err
	}
	// Accept: update capacitor states.
	for k := range c.caps {
		cp := &c.caps[k]
		if cp.c == 0 {
			continue
		}
		vNew := nodeV(xTry, cp.i) - nodeV(xTry, cp.j)
		if useBE {
			cp.iPrev = cp.c / h * (vNew - cp.vPrev)
		} else {
			cp.iPrev = 2*cp.c/h*(vNew-cp.vPrev) - cp.iPrev
		}
		cp.vPrev = vNew
	}
	copy(x, xTry)
	return nil
}

// advance integrates one step of size h starting at time t, updating x
// and the capacitor states. depth guards the recursive step halving on
// Newton failure.
func (c *Circuit) advance(ctx context.Context, x []float64, t, h float64, useBE bool, depth int) error {
	if depth > 10 {
		return fmt.Errorf("step size underflow after %d halvings", depth)
	}
	if err := c.singleStep(ctx, x, t, h, useBE); err != nil {
		if resilience.IsCancellation(err) {
			return err
		}
		// Halve the step: integrate two half steps (backward Euler on the
		// halves for stability).
		if err2 := c.advance(ctx, x, t, h/2, true, depth+1); err2 != nil {
			return err2
		}
		return c.advance(ctx, x, t+h/2, h/2, true, depth+1)
	}
	return nil
}

// ACResult holds a small-signal frequency sweep.
type ACResult struct {
	F []float64
	X [][]complex128
	c *Circuit
}

// Mag returns |V(node)| across the sweep.
func (r *ACResult) Mag(name string) ([]float64, error) {
	idx, ok := r.c.NodeIndex(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown node %q", name)
	}
	out := make([]float64, len(r.F))
	if idx >= 0 {
		for k, x := range r.X {
			out[k] = cmplx.Abs(x[idx])
		}
	}
	return out, nil
}

// AC performs a small-signal sweep at the given frequencies (Hz). The
// operating point is computed first; MOSFETs contribute their
// linearized conductances, capacitors jωC, and sources their ACMag.
func (c *Circuit) AC(freqs []float64) (*ACResult, error) {
	return c.ACCtx(context.Background(), freqs)
}

// ACCtx is AC with cooperative cancellation between frequency points: a
// canceled sweep returns a resilience.StageError for the AC stage
// instead of partial results.
func (c *Circuit) ACCtx(ctx context.Context, freqs []float64) (*ACResult, error) {
	if _, err := c.DCCtx(ctx); err != nil {
		if resilience.IsCancellation(err) {
			return nil, resilience.Canceled(resilience.StageAC, ctx)
		}
		return nil, fmt.Errorf("sim: AC operating point: %w", err)
	}
	n := c.nUnknown
	vals := make([]complex128, len(c.rowIdx))
	rhs := make([]complex128, n)
	res := &ACResult{c: c}
	for fi, f := range freqs {
		if ctx.Err() != nil {
			return nil, resilience.Canceled(resilience.StageAC, ctx)
		}
		omega := 2 * math.Pi * f
		for i := range vals {
			vals[i] = 0
		}
		for i := range rhs {
			rhs[i] = 0
		}
		stampGC := func(pos [4]int, g complex128) {
			if pos[0] >= 0 {
				vals[pos[0]] += g
			}
			if pos[1] >= 0 {
				vals[pos[1]] += g
			}
			if pos[2] >= 0 {
				vals[pos[2]] -= g
			}
			if pos[3] >= 0 {
				vals[pos[3]] -= g
			}
		}
		for k := range c.resistors {
			stampGC(c.resistors[k].pos, complex(c.resistors[k].g, 0))
		}
		for k := range c.caps {
			stampGC(c.caps[k].pos, complex(0, omega*c.caps[k].c))
		}
		for k := range c.vsrcs {
			v := &c.vsrcs[k]
			for _, p := range []int{v.pos[0], v.pos[1]} {
				if p >= 0 {
					vals[p] += 1
				}
			}
			for _, p := range []int{v.pos[2], v.pos[3]} {
				if p >= 0 {
					vals[p] -= 1
				}
			}
			rhs[v.br] = complex(v.src.ACMag, 0)
		}
		for k := range c.isrcs {
			is := &c.isrcs[k]
			if is.i >= 0 {
				rhs[is.i] -= complex(is.src.ACMag, 0)
			}
			if is.j >= 0 {
				rhs[is.j] += complex(is.src.ACMag, 0)
			}
		}
		for k := range c.inductors {
			l := &c.inductors[k]
			if l.pos[0] >= 0 {
				vals[l.pos[0]] += 1
			}
			if l.pos[1] >= 0 {
				vals[l.pos[1]] += 1
			}
			if l.pos[2] >= 0 {
				vals[l.pos[2]] -= 1
			}
			if l.pos[3] >= 0 {
				vals[l.pos[3]] -= 1
			}
			if l.pos[4] >= 0 {
				vals[l.pos[4]] -= complex(0, omega*l.l)
			}
		}
		for k := range c.diodes {
			stampGC(c.diodes[k].pos, complex(c.diodes[k].opGd, 0))
		}
		for k := range c.mosfets {
			m := &c.mosfets[k]
			fs := -(m.opFd + m.opFg + m.opFb)
			cols := [4]float64{m.opFd, m.opFg, fs, m.opFb}
			for b, v := range cols {
				if p := m.pos[0][b]; p >= 0 {
					vals[p] += complex(v, 0)
				}
				if p := m.pos[1][b]; p >= 0 {
					vals[p] -= complex(v, 0)
				}
			}
		}
		for i := 0; i < c.nNodes; i++ {
			vals[c.diagPos[i]] += complex(c.Gmin, 0)
		}
		if check.Enabled && len(c.mosfets) == 0 {
			re := make([]float64, len(vals))
			im := make([]float64, len(vals))
			for p, v := range vals {
				re[p] = real(v)
				im[p] = imag(v)
			}
			c.checkMNASymmetry("sim AC MNA matrix (real part)", re)
			c.checkMNASymmetry("sim AC MNA matrix (imaginary part)", im)
		}
		lu, err := LUFactor(n, c.colPtr, c.rowIdx, vals, c.q, cmplx.Abs, 0.1)
		if inject.Enabled && err == nil && inject.ShouldFail(inject.SimACComplexSolve, fi) {
			err = fmt.Errorf("complex MNA matrix numerically singular")
		}
		if err != nil {
			return nil, fmt.Errorf("sim: AC at %g Hz: %w", f, err)
		}
		c.Stats.Factorizations++
		if b := int64(lu.NNZ() * 32); b > c.Stats.PeakBytes {
			c.Stats.PeakBytes = b
		}
		x := append([]complex128(nil), rhs...)
		lu.Solve(x)
		res.F = append(res.F, f)
		res.X = append(res.X, x)
	}
	return res, nil
}

// LogSpace returns n log-spaced frequencies from f1 to f2 inclusive.
func LogSpace(f1, f2 float64, n int) []float64 {
	if n < 2 {
		return []float64{f1}
	}
	out := make([]float64, n)
	l1, l2 := math.Log10(f1), math.Log10(f2)
	for i := 0; i < n; i++ {
		out[i] = math.Pow(10, l1+(l2-l1)*float64(i)/float64(n-1))
	}
	return out
}
