package chol

import (
	"fmt"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// meshSPD3 is the 3-D analogue of meshSPD: an nx×ny×nz resistor lattice
// with every node grounded through a small conductance, the substrate
// class of the paper's Table 2.
func meshSPD3(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n, n)
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	edge := func(i, j int) {
		b.AddSym(i, j, -1)
		b.Add(i, i, 1)
		b.Add(j, j, 1)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := id(x, y, z)
				b.Add(i, i, 0.1)
				if x+1 < nx {
					edge(i, id(x+1, y, z))
				}
				if y+1 < ny {
					edge(i, id(x, y+1, z))
				}
				if z+1 < nz {
					edge(i, id(x, y, z+1))
				}
			}
		}
	}
	return b.Build()
}

// BenchmarkKernelThreshold times both kernels on AMD-ordered grounded
// 2-D and 3-D meshes at orders around supernodalMinOrder: "oneshot"
// rows pay the kernel analysis plus one numeric factorization, as
// Transform 1 does; "numeric" rows reuse the analysis, as a Y(s) sweep
// or a multi-point shift does. It is the measurement behind the
// threshold.
//
//	go test ./internal/chol -run '^$' -bench KernelThreshold
func BenchmarkKernelThreshold(b *testing.B) {
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"mesh2d", meshSPD(16, 16)},
		{"mesh2d", meshSPD(23, 23)},
		{"mesh2d", meshSPD(45, 45)},
		{"mesh3d", meshSPD3(6, 6, 6)},
		{"mesh3d", meshSPD3(8, 8, 8)},
		{"mesh3d", meshSPD3(13, 13, 9)},
	} {
		sym, ap := order.Analyze(m.a, order.MinimumDegree)
		ss, err := analyzeSuper(ap, sym, order.DefaultMaxWidth)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []struct {
			name   string
			factor func() (*Factor, error)
		}{
			{"uplooking", func() (*Factor, error) { return factorizeUpLooking(ap, sym) }},
			{"supernodal/oneshot", func() (*Factor, error) { return factorizeSupernodal(ap, sym) }},
			{"supernodal/numeric", func() (*Factor, error) { return ss.factorize(ap, nil) }},
		} {
			b.Run(fmt.Sprintf("%s/n%d/%s", m.name, ap.Rows, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.factor(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchMeshes are the lattices the factor and solve benchmarks run on:
// the Table 2 substrate lattice and a 3-D mesh large enough that the
// supernodal panels block. Both orders are above supernodalMinOrder.
var benchMeshes = []struct {
	name string
	a    func() *sparse.CSR
}{
	{"mesh3d/n1521", func() *sparse.CSR { return meshSPD3(13, 13, 9) }},
	{"mesh3d/n9216", func() *sparse.CSR { return meshSPD3(24, 24, 16) }},
}

// benchRHS is the right-hand-side count of the multi-column solves,
// the port count of the Table 2 deck.
const benchRHS = 25

// analyzeBench AMD-orders a, analyzes the permuted matrix and factors
// it once, returning the permuted matrix, the analysis and the factor.
func analyzeBench(b *testing.B, a *sparse.CSR) (*sparse.CSR, *Analysis, *Factor) {
	b.Helper()
	sym, ap := order.Analyze(a, order.MinimumDegree)
	an, err := Analyze(ap, sym)
	if err != nil {
		b.Fatal(err)
	}
	f, err := an.Factorize(ap, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ap, an, f
}

// complexVal gives the analyzed pattern the values A + 0.25i·A, a
// complex symmetric matrix of the D + sE shape.
func complexVal(ap *sparse.CSR) func(p int) complex128 {
	return func(p int) complex128 { return complex(ap.Val[p], 0.25*ap.Val[p]) }
}

func benchRHSBlock(n int) []float64 {
	rhs := make([]float64, benchRHS*n)
	for i := range rhs {
		rhs[i] = float64(i%17)*0.25 + 1
	}
	return rhs
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// reportShape records the shape of the factor a benchmark exercises:
// its supernode count and its stored entries (the fill).
func reportShape(b *testing.B, f *Factor) {
	b.ReportMetric(float64(f.Supernodes()), "supernodes")
	b.ReportMetric(float64(f.NNZ()), "l-nnz")
}

// BenchmarkFactorize times the numeric supernodal factorization under
// a fixed analysis, as Transform 1 and every multi-point shift run it.
// Its scaling curve is the -cpu list:
//
//	go test ./internal/chol -run '^$' -bench 'Factorize$' -cpu 1,2,4,8
func BenchmarkFactorize(b *testing.B) {
	for _, m := range benchMeshes {
		ap, an, f := analyzeBench(b, m.a())
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := an.Factorize(ap, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, f.FlopEstimate())
			reportShape(b, f)
		})
	}
}

// BenchmarkSolveMulti times benchRHS right-hand sides solved as one
// block against the same columns solved one at a time.
func BenchmarkSolveMulti(b *testing.B) {
	for _, m := range benchMeshes {
		ap, _, f := analyzeBench(b, m.a())
		n := ap.Rows
		rhs := benchRHSBlock(n)
		work := make([]float64, len(rhs))
		for _, k := range []struct {
			name  string
			solve func()
		}{
			{"multi", func() { f.SolveMulti(work, benchRHS) }},
			{"columnwise", func() {
				for c := 0; c < benchRHS; c++ {
					f.Solve(work[c*n : (c+1)*n])
				}
			}},
		} {
			b.Run(m.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, rhs)
					k.solve()
				}
				reportGFLOPS(b, 4*float64(f.NNZ())*benchRHS)
				reportShape(b, f)
			})
		}
	}
}

// BenchmarkSolve times one single-vector forward and backward
// substitution, LSolve then LTSolve, on AMD-ordered 2-D lattices: the
// factor shape of the 100k power grid, whose supernodes are mostly one
// column wide, and the pair of triangular solves each Lanczos E′
// application runs on it. The mesh benchmarks above have wide panels.
func BenchmarkSolve(b *testing.B) {
	for _, m := range []struct {
		name string
		a    func() *sparse.CSR
	}{
		{"mesh2d/n10000", func() *sparse.CSR { return meshSPD(100, 100) }},
		{"mesh2d/n99856", func() *sparse.CSR { return meshSPD(316, 316) }},
	} {
		ap, _, f := analyzeBench(b, m.a())
		rhs := benchRHSBlock(ap.Rows)[:ap.Rows]
		work := make([]float64, len(rhs))
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, rhs)
				f.LSolve(work)
				f.LTSolve(work)
			}
			reportShape(b, f)
		})
	}
}

// BenchmarkFactorizeComplex times the complex LDLᵀ of the same meshes
// at complex values on the analyzed pattern, the per-frequency cost of
// a Y(s) sweep; a complex multiply-add is four real ones.
func BenchmarkFactorizeComplex(b *testing.B) {
	for _, m := range benchMeshes {
		ap, an, f := analyzeBench(b, m.a())
		val := complexVal(ap)
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := an.FactorizeComplex(val, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 4*f.FlopEstimate())
			reportShape(b, f)
		})
	}
}

// BenchmarkComplexSolveMulti times the block solve against the complex
// factor.
func BenchmarkComplexSolveMulti(b *testing.B) {
	for _, m := range benchMeshes {
		ap, an, f := analyzeBench(b, m.a())
		fc, err := an.FactorizeComplex(complexVal(ap), nil)
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]complex128, benchRHS*ap.Rows)
		for i := range rhs {
			rhs[i] = complex(float64(i%17)*0.25+1, float64(i%11)*0.5-2)
		}
		work := make([]complex128, len(rhs))
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, rhs)
				if err := fc.SolveMulti(work, benchRHS); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 16*float64(f.NNZ())*benchRHS)
		})
	}
}

// BenchmarkRefactorizePooled is the steady state of a Y(s) sweep: one
// workspace carries a real factorization, a block solve and a complex
// factorization per op, so allocs/op pins the pooled reuse. One
// untimed op sizes the workspace first.
func BenchmarkRefactorizePooled(b *testing.B) {
	for _, m := range benchMeshes {
		ap, an, f := analyzeBench(b, m.a())
		val := complexVal(ap)
		rhs := benchRHSBlock(ap.Rows)
		ws := an.NewWorkspace()
		op := func() {
			fw, err := an.Factorize(ap, ws)
			if err != nil {
				b.Fatal(err)
			}
			fw.SolveMulti(rhs, benchRHS)
			if _, err := an.FactorizeComplex(val, ws); err != nil {
				b.Fatal(err)
			}
		}
		op()
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
			reportGFLOPS(b, 5*f.FlopEstimate())
			reportShape(b, f)
		})
	}
}
