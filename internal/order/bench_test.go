package order

import "testing"

// orderingBenchMesh is the substrate-mesh lattice of the small Table 2
// deck (13×13×9), the pattern the two orderings are timed on.
func orderingBenchMesh() (nx, ny, nz int) { return 13, 13, 9 }

// BenchmarkOrderingAMD times the production ordering (AMD) of the
// substrate mesh pattern.
func BenchmarkOrderingAMD(b *testing.B) {
	a := grid3D(orderingBenchMesh())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AMD(a)
	}
}

// BenchmarkOrderingMinDegree times the plain minimum-degree fill oracle
// on the same pattern, for comparison with BenchmarkOrderingAMD.
func BenchmarkOrderingMinDegree(b *testing.B) {
	a := grid3D(orderingBenchMesh())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinDegree(a)
	}
}
