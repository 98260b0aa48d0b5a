package order

import "testing"

// orderingBenchMesh is the substrate-mesh lattice of the small Table 2
// deck (13×13×9), the pattern the two orderings are timed on.
func orderingBenchMesh() (nx, ny, nz int) { return 13, 13, 9 }

// BenchmarkOrderingAMD times the production ordering (AMD) of the
// substrate mesh pattern and reports the Cholesky factor nonzeros it
// leads to.
func BenchmarkOrderingAMD(b *testing.B) {
	a := grid3D(orderingBenchMesh())
	b.ReportAllocs()
	b.ResetTimer()
	var perm []int
	for i := 0; i < b.N; i++ {
		perm = AMD(a)
	}
	b.ReportMetric(float64(fillFor(a, perm)), "fill-nnz")
}

// BenchmarkOrderingMinDegree times the plain minimum-degree fill oracle
// on the same pattern, for comparison with BenchmarkOrderingAMD.
func BenchmarkOrderingMinDegree(b *testing.B) {
	a := grid3D(orderingBenchMesh())
	b.ReportAllocs()
	b.ResetTimer()
	var perm []int
	for i := 0; i < b.N; i++ {
		perm = MinDegree(a)
	}
	b.ReportMetric(float64(fillFor(a, perm)), "fill-nnz")
}
