package experiments

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/stamp"
)

// Sparsify quantifies the RCFIT sparsity-enhancement heuristic (Section 5
// of the paper): realized reduced networks carry dense port blocks whose
// small off-diagonals can be folded into the diagonals — exactly
// preserving passivity — at a controllable accuracy cost. The experiment
// sweeps the threshold on the Table 2 mesh and reports element counts
// against transimpedance error below f_max.
func Sparsify(w io.Writer, full bool) error {
	opts := netgen.SmallMeshOpts() // paper-scale mesh at both settings
	deck, ports, err := netgen.Mesh3D(opts)
	if err != nil {
		return err
	}
	ex, err := extractMesh(deck, ports)
	if err != nil {
		return err
	}
	fmax := 3e9
	model, _, err := core.Reduce(ex.Sys, core.Options{FMax: fmax, Tol: 0.05})
	if err != nil {
		return err
	}
	freqs := []float64{1e8, 3e8, 1e9, 2e9, 3e9}
	iMon, jDrv := 0, ex.Sys.M/2
	ys, err := ex.Sys.YSweep(freqs)
	if err != nil {
		return err
	}
	zref, err := par.Map(len(freqs), func(k int) (complex128, error) {
		return core.TransimpedanceOf(ys[k], iMon, jDrv)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reduced model: %d ports + %d poles; error measured on |Z(%d,%d)| below fmax\n\n",
		model.M, model.K(), iMon, jDrv)
	fmt.Fprintf(w, "%10s %8s %8s %14s\n", "threshold", "R's", "C's", "max |Z| err")
	for _, tol := range []float64{0, 1e-4, 1e-3, 3e-3, 1e-2, 2e-2, 3e-2, 5e-2} {
		elems, internal, err := stamp.Realize(model, ex.PortNames, stamp.RealizeOptions{SparsifyTol: tol})
		if err != nil {
			return err
		}
		maxErr := 0.0
		for k, f := range freqs {
			z, err := realizedTransimpedance(elems, ex.PortNames, internal, complex(0, 2*math.Pi*f), iMon, jDrv)
			if err != nil {
				return err
			}
			if e := cmplx.Abs(z-zref[k]) / cmplx.Abs(zref[k]); e > maxErr {
				maxErr = e
			}
		}
		fmt.Fprintf(w, "%10.0e %8d %8d %13.2f%%\n",
			tol, countType(elems, 'r'), countType(elems, 'c'), 100*maxErr)
	}
	fmt.Fprintln(w, "\npassivity is preserved at every threshold (each dropped pair is replaced")
	fmt.Fprintln(w, "by a non-negative definite diagonal perturbation). accuracy collapses once")
	fmt.Fprintln(w, "the threshold reaches the size of genuine port-to-port conductances — the")
	fmt.Fprintln(w, "heuristic is for the long tail of tiny couplings (the paper's \"very small\"")
	fmt.Fprintln(w, "elements), not for thinning the real network.")
	return nil
}

// Ordering compares the fill-reducing orderings on the substrate mesh:
// factor size and end-to-end reduction time for minimum degree, reverse
// Cuthill–McKee and the natural order — the design choice behind the
// paper's Cholesky-based first transform.
func Ordering(w io.Writer, full bool) error {
	opts := netgen.SmallMeshOpts()
	if !full {
		opts = netgen.MeshOpts{NX: 10, NY: 10, NZ: 7, REdge: 630, CSurf: 30e-15, NPorts: 20}
	}
	deck, ports, err := netgen.Mesh3D(opts)
	if err != nil {
		return err
	}
	ex, err := extractMesh(deck, ports)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mesh internal block: %d nodes, %d nonzeros\n\n", ex.Sys.N, ex.Sys.D.NNZ())
	fmt.Fprintf(w, "%-16s %12s %12s %14s %8s\n", "ordering", "factor nnz", "fill ratio", "reduce (s)", "poles")
	for _, m := range []order.Method{order.MinimumDegree, order.RCM, order.Natural} {
		sym, _ := order.Analyze(ex.Sys.D, m)
		t0 := time.Now()
		model, _, err := core.Reduce(ex.Sys, core.Options{FMax: 3e9, Tol: 0.05, Ordering: m})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16v %12d %12.1f %14.3f %8d\n",
			m, sym.LNNZ(), float64(sym.LNNZ())/float64(ex.Sys.D.NNZ()),
			time.Since(t0).Seconds(), model.K())
	}
	fmt.Fprintln(w, "\nall orderings give identical poles (congruence by permutation); minimum")
	fmt.Fprintln(w, "degree minimizes fill on the strongly connected 3-D mesh, the workload the")
	fmt.Fprintln(w, "paper designed PACT for.")
	return nil
}

// realizedTransimpedance evaluates Z(i,j) of a realized element list by
// inverting the full stamped admittance matrix of the realized network at
// complex frequency s.
func realizedTransimpedance(elems []netlist.Element, portNames, internal []string, s complex128, i, j int) (complex128, error) {
	names := append(append([]string(nil), portNames...), internal...)
	idx := map[string]int{netlist.Ground: -1}
	for k, n := range names {
		idx[n] = k
	}
	n := len(names)
	y := dense.NewC(n, n)
	for _, e := range elems {
		var val complex128
		switch el := e.(type) {
		case *netlist.Resistor:
			val = complex(1/el.Value, 0)
		case *netlist.Capacitor:
			val = s * complex(el.Value, 0)
		}
		ns := e.Nodes()
		a, b := idx[ns[0]], idx[ns[1]]
		if a >= 0 {
			y.Add(a, a, val)
		}
		if b >= 0 {
			y.Add(b, b, val)
		}
		if a >= 0 && b >= 0 {
			y.Add(a, b, -val)
			y.Add(b, a, -val)
		}
	}
	// Z = Y⁻¹ on the full (ports + internal) matrix; entry (i, j) of the
	// port block is the transimpedance we want.
	f, err := dense.FactorCLU(y)
	if err != nil {
		return 0, err
	}
	b := make([]complex128, n)
	b[j] = 1
	f.Solve(b)
	return b[i], nil
}
