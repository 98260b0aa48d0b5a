package lanczos

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dense"
)

// diagOp is a diagonal operator, the simplest symmetric test case with
// fully known spectrum.
type diagOp struct{ d []float64 }

func (o diagOp) Dim() int { return len(o.d) }
func (o diagOp) Apply(dst, src []float64) {
	for i, v := range o.d {
		dst[i] = v * src[i]
	}
}

// denseOp wraps a dense symmetric matrix.
type denseOp struct{ m *dense.Mat }

func (o denseOp) Dim() int { return o.m.R }
func (o denseOp) Apply(dst, src []float64) {
	copy(dst, o.m.MulVec(src))
}

func randomNND(rng *rand.Rand, n int, spectrum []float64) (*dense.Mat, []float64) {
	// Build A = Q diag(spectrum) Qᵀ with a random orthogonal Q obtained
	// from the eigenvectors of a random symmetric matrix.
	s := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	_, q, err := dense.SymEig(s)
	if err != nil {
		panic(err)
	}
	lam := dense.New(n, n)
	for i, v := range spectrum {
		lam.Set(i, i, v)
	}
	a := dense.Mul(dense.Mul(q, lam), q.T())
	a.Symmetrize()
	sorted := append([]float64(nil), spectrum...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	return a, sorted
}

func checkEigenpairs(t *testing.T, op Operator, res *Result, wantVals []float64, tol float64) {
	t.Helper()
	if len(res.Values) != len(wantVals) {
		t.Fatalf("found %d eigenvalues %v, want %d: %v", len(res.Values), res.Values, len(wantVals), wantVals)
	}
	for i, v := range res.Values {
		if math.Abs(v-wantVals[i]) > tol*(1+math.Abs(wantVals[i])) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, v, wantVals[i])
		}
	}
	// Residual and orthonormality checks.
	n := op.Dim()
	for j := range res.Values {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = res.Vectors.At(i, j)
		}
		ax := make([]float64, n)
		op.Apply(ax, x)
		resid := 0.0
		for i := range ax {
			d := ax[i] - res.Values[j]*x[i]
			resid += d * d
		}
		if math.Sqrt(resid) > 100*tol*(1+math.Abs(res.Values[j])) {
			t.Fatalf("residual for eigenpair %d = %g too large", j, math.Sqrt(resid))
		}
		for jj := 0; jj < j; jj++ {
			y := 0.0
			for i := 0; i < n; i++ {
				y += res.Vectors.At(i, j) * res.Vectors.At(i, jj)
			}
			if math.Abs(y) > 1e-6 {
				t.Fatalf("Ritz vectors %d and %d not orthogonal: %g", j, jj, y)
			}
		}
	}
}

func TestFindAboveDiagonal(t *testing.T) {
	d := []float64{9, 7, 5, 3, 1, 0.5, 0.25, 0.1, 0.05, 0.01}
	rng := rand.New(rand.NewSource(5))
	// Pad with many small eigenvalues.
	for i := 0; i < 70; i++ {
		d = append(d, 0.009*rng.Float64())
	}
	op := diagOp{d}
	res, err := FindAbove(op, Options{Cutoff: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{9, 7, 5, 3, 1}, 1e-7)
	if res.MatVecs >= len(d) {
		t.Logf("note: used %d matvecs for n=%d", res.MatVecs, len(d))
	}
}

func TestFindAboveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spectrum := make([]float64, 60)
	for i := range spectrum {
		spectrum[i] = rng.Float64() * 0.1
	}
	spectrum[0], spectrum[1], spectrum[2] = 4, 2.5, 1.1
	a, sorted := randomNND(rng, 60, spectrum)
	op := denseOp{a}
	res, err := FindAbove(op, Options{Cutoff: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, sorted[:3], 1e-6)
}

func TestFindAboveMultipleEigenvalues(t *testing.T) {
	// A repeated dominant eigenvalue: LASO must find both copies through
	// deflation against the converged Ritz vector.
	rng := rand.New(rand.NewSource(7))
	spectrum := make([]float64, 40)
	for i := range spectrum {
		spectrum[i] = 0.05 * rng.Float64()
	}
	spectrum[0], spectrum[1] = 3, 3
	spectrum[2] = 2
	a, _ := randomNND(rng, 40, spectrum)
	op := denseOp{a}
	res, err := FindAbove(op, Options{Cutoff: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{3, 3, 2}, 1e-6)
}

func TestFindAboveClusteredEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spectrum := make([]float64, 50)
	for i := range spectrum {
		spectrum[i] = 0.01 * rng.Float64()
	}
	spectrum[0], spectrum[1], spectrum[2] = 1.0, 0.999, 0.998
	a, _ := randomNND(rng, 50, spectrum)
	op := denseOp{a}
	res, err := FindAbove(op, Options{Cutoff: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{1.0, 0.999, 0.998}, 1e-5)
}

func TestFindAboveNoEigenvaluesAboveCutoff(t *testing.T) {
	d := make([]float64, 30)
	for i := range d {
		d[i] = 0.1 + 0.001*float64(i)
	}
	op := diagOp{d}
	res, err := FindAbove(op, Options{Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatalf("found %v above an impossible cutoff", res.Values)
	}
}

func TestFindAboveFullSpectrumSmall(t *testing.T) {
	d := []float64{4, 3, 2, 1}
	op := diagOp{d}
	res, err := FindAbove(op, Options{Cutoff: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{4, 3, 2, 1}, 1e-9)
}

func TestFindAboveModes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spectrum := make([]float64, 45)
	for i := range spectrum {
		spectrum[i] = 0.02 * rng.Float64()
	}
	spectrum[0], spectrum[1] = 6, 1.5
	a, _ := randomNND(rng, 45, spectrum)
	op := denseOp{a}
	for _, mode := range []Mode{Selective, Full, None} {
		res, err := FindAbove(op, Options{Cutoff: 1.0, Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		checkEigenpairs(t, op, res, []float64{6, 1.5}, 1e-6)
	}
}

func TestFindAboveDeterministic(t *testing.T) {
	d := []float64{5, 4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	op := diagOp{d}
	r1, err := FindAbove(op, Options{Cutoff: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FindAbove(op, Options{Cutoff: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Values) != len(r2.Values) || r1.MatVecs != r2.MatVecs {
		t.Fatal("same seed must give identical runs")
	}
}

func TestTwoPassDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := []float64{8, 6, 2.2}
	for i := 0; i < 80; i++ {
		d = append(d, 0.5*rng.Float64())
	}
	op := diagOp{d}
	res, err := TwoPass(op, Options{Cutoff: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{8, 6, 2.2}, 1e-6)
	if res.PeakVectors > 3+len(res.Values) {
		t.Errorf("PeakVectors = %d, want <= %d (the memory claim)", res.PeakVectors, 3+len(res.Values))
	}
}

func TestTwoPassDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spectrum := make([]float64, 70)
	for i := range spectrum {
		spectrum[i] = 0.05 * rng.Float64()
	}
	spectrum[0], spectrum[1] = 3.5, 1.2
	a, _ := randomNND(rng, 70, spectrum)
	op := denseOp{a}
	res, err := TwoPass(op, Options{Cutoff: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	checkEigenpairs(t, op, res, []float64{3.5, 1.2}, 1e-5)
}

func TestTwoPassUsesFewerVectorsThanStored(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 120
	spectrum := make([]float64, n)
	for i := range spectrum {
		spectrum[i] = 0.02 * rng.Float64()
	}
	spectrum[0] = 5
	a, _ := randomNND(rng, n, spectrum)
	op := denseOp{a}
	full, err := FindAbove(op, Options{Cutoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoPass(op, Options{Cutoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if two.PeakVectors >= full.PeakVectors {
		t.Errorf("TwoPass peak vectors %d not below stored-mode %d", two.PeakVectors, full.PeakVectors)
	}
}

func TestModeString(t *testing.T) {
	if Selective.String() != "selective" || Full.String() != "full" || None.String() != "none" {
		t.Error("Mode.String mismatch")
	}
}

func TestClusterDescending(t *testing.T) {
	got := clusterDescending([]float64{1.0, 3.0, 1.0000001, 2.0}, 1e-3)
	if len(got) != 3 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("clusterDescending = %v", got)
	}
	if math.Abs(got[2]-1.00000005) > 1e-9 {
		t.Fatalf("cluster mean = %v", got[2])
	}
}

// recordOp wraps an operator and records the Float64bits of every vector
// it is applied to, in order.
type recordOp struct {
	Operator
	inputs []string
}

func (o *recordOp) Apply(dst, src []float64) {
	o.inputs = append(o.inputs, bitsKey(src))
	o.Operator.Apply(dst, src)
}

func bitsKey(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

// classifyInputs splits the inputs rec saw into Lanczos steps and
// certifications. A certification applies the operator to a Ritz vector
// the run is about to keep, which is an eigenvector to within the
// convergence tolerance, while a Lanczos vector mixes many eigenvectors:
// inputs whose Rayleigh residual ‖Av − (vᵀAv)v‖ is below tol are
// certifications. A run starts at the start vector, so each input
// bit-identical to the first begins a run; runs counts them.
func classifyInputs(rec *recordOp, tol float64) (steps, certs, runs int) {
	n := rec.Dim()
	av := make([]float64, n)
	for _, key := range rec.inputs {
		if key == rec.inputs[0] {
			runs++
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64([]byte(key[8*i:])))
		}
		rec.Operator.Apply(av, v)
		theta := dot(v, av)
		r := 0.0
		for i := range av {
			d := av[i] - theta*v[i]
			r += d * d
		}
		if math.Sqrt(r) <= tol {
			certs++
		} else {
			steps++
		}
	}
	return steps, certs, runs
}

// appliedOnce runs LASO on op through a recordOp and checks that every
// returned Ritz vector reached the operator exactly once. It returns the
// result, the record, and the index in the record of each returned
// vector's application.
func appliedOnce(t *testing.T, op Operator, opts Options) (*Result, *recordOp, []int) {
	t.Helper()
	rec := &recordOp{Operator: op}
	res, err := FindAbove(rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatVecs != len(rec.inputs) {
		t.Fatalf("MatVecs %d, but the operator saw %d inputs", res.MatVecs, len(rec.inputs))
	}
	at := make([]int, len(res.Values))
	for j := range res.Values {
		col := make([]float64, op.Dim())
		for i := range col {
			col[i] = res.Vectors.At(i, j)
		}
		key := bitsKey(col)
		at[j] = -1
		for k, in := range rec.inputs {
			if in != key {
				continue
			}
			if at[j] >= 0 {
				t.Fatalf("Ritz vector %d (θ = %v) applied twice, at %d and %d", j, res.Values[j], at[j], k)
			}
			at[j] = k
		}
		if at[j] < 0 {
			t.Fatalf("Ritz vector %d (θ = %v) returned without an explicit residual", j, res.Values[j])
		}
	}
	return res, rec, at
}

// onePass checks that a run which neither hit a spurious candidate nor
// redid itself in Full mode applied the operator once per Lanczos step
// and once per returned pair.
func onePass(t *testing.T, res *Result) {
	t.Helper()
	if want := res.Iterations + len(res.Values); res.MatVecs != want {
		t.Fatalf("MatVecs %d, want %d Lanczos steps + %d certifications", res.MatVecs, res.Iterations, len(res.Values))
	}
}

// TestFindAboveCertifiesEachPairOnce: LASO applies the operator to each
// Ritz vector it returns exactly once, for the explicit residual that
// certifies it, whether the loop certified it or finish did. A late copy
// of a multiple eigenvalue shares its bucket with the first copy, so only
// finish can certify it.
func TestFindAboveCertifiesEachPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := []float64{9, 7, 5, 3, 1, 0.5, 0.25, 0.1, 0.05, 0.01}
	for i := 0; i < 70; i++ {
		d = append(d, 0.009*rng.Float64())
	}
	for _, mode := range []Mode{Selective, Full} {
		res, _, _ := appliedOnce(t, diagOp{d}, Options{Cutoff: 0.9, Mode: mode})
		checkEigenpairs(t, diagOp{d}, res, []float64{9, 7, 5, 3, 1}, 1e-7)
		onePass(t, res)
	}

	// The [3, 3, 2] fixture of TestFindAboveMultipleEigenvalues. In
	// Selective mode the uncertified second copy keeps shedding ghosts
	// until the Krylov space is exhausted and the run is redone in Full
	// mode, so the copy is certified by the Full run's finish, which the
	// Full-mode run below checks in isolation. The default-mode run must
	// still count every step and application of both runs.
	rng = rand.New(rand.NewSource(7))
	spectrum := make([]float64, 40)
	for i := range spectrum {
		spectrum[i] = 0.05 * rng.Float64()
	}
	spectrum[0], spectrum[1] = 3, 3
	spectrum[2] = 2
	a, _ := randomNND(rng, 40, spectrum)
	op := denseOp{a}
	res, rec, _ := appliedOnce(t, op, Options{Cutoff: 1.0})
	checkEigenpairs(t, op, res, []float64{3, 3, 2}, 1e-6)
	// The redo's counts include the discarded run's: every recorded input
	// is a Lanczos step of one of the two runs or a certification.
	steps, certs, runs := classifyInputs(rec, 1e-6)
	if runs != 2 {
		t.Fatalf("default-mode run made %d Lanczos runs, want the Selective run and its Full redo", runs)
	}
	if res.Iterations != steps || res.MatVecs != res.Iterations+certs {
		t.Fatalf("Iterations %d, MatVecs %d; the operator saw %d Lanczos steps and %d certifications",
			res.Iterations, res.MatVecs, steps, certs)
	}
	res, rec, at := appliedOnce(t, op, Options{Cutoff: 1.0, Mode: Full})
	checkEigenpairs(t, op, res, []float64{3, 3, 2}, 1e-6)
	onePass(t, res)
	// The inputs that are not returned vectors are the Lanczos steps.
	lastStep := -1
	for k := range rec.inputs {
		if !slices.Contains(at, k) {
			lastStep = k
		}
	}
	first, second := min(at[0], at[1]), max(at[0], at[1])
	if first > lastStep || second < lastStep {
		t.Fatalf("the copies of 3 were applied at %d and %d, the last Lanczos step at %d: want the first certified in the loop and the second in finish",
			first, second, lastStep)
	}
}

// TestFindAboveStopsOnMargin: once every eigenvalue above the cutoff is
// certified and nothing else could cross it, LASO runs lasoMargin quiet
// steps, the certifying step first, and stops (checks run every step
// this early).
func TestFindAboveStopsOnMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spectrum := make([]float64, 60)
	for i := range spectrum {
		spectrum[i] = rng.Float64() * 0.1
	}
	spectrum[0], spectrum[1], spectrum[2] = 4, 2.5, 1.1
	a, sorted := randomNND(rng, 60, spectrum)
	op := denseOp{a}
	res, _, at := appliedOnce(t, op, Options{Cutoff: 1.0})
	checkEigenpairs(t, op, res, sorted[:3], 1e-6)
	onePass(t, res)
	// Lanczos steps taken when the last pair was certified.
	last := slices.Max(at)
	steps := 0
	for k := 0; k < last; k++ {
		if !slices.Contains(at, k) {
			steps++
		}
	}
	if got := res.Iterations - steps + 1; got != lasoMargin {
		t.Fatalf("stopped after %d quiet steps (last certification at step %d of %d), want %d",
			got, steps, res.Iterations, lasoMargin)
	}
}
