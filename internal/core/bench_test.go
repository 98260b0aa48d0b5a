package core

import (
	"context"
	"testing"

	"repro/internal/resilience"
)

// BenchmarkDensePoles times the dense E′ eigenpath with its residue
// projection (densePoles) once Transform 1 has run, on the in-package
// twin of the 256-port wide-band bench: 320 internal nodes, the size at
// which the multi-point whole-space rule sends that bench here. At
// f_max 0.05 (fixture units, TestMultiPointOracleWideBand256's) 304 of
// the 320 eigenvalues lie above λ_c, so this is the k ≈ n end of the
// selected eigensolve, and 203 of them chain into one cluster:
//
//	go test ./internal/core -run '^$' -bench DensePoles
func BenchmarkDensePoles(b *testing.B) {
	sys := gradedGridSystem(b, 24, 24, 16, 16, 2)
	tr, _, err := Transform1(sys, Options{FMax: 0.05, Tol: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.densePoles(context.Background(), resilience.StageMultiPoint); err != nil {
			b.Fatal(err)
		}
	}
}
