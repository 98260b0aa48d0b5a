package dense_test

import (
	"testing"

	"repro/internal/dense"
)

// The panel micro-kernel benchmarks time the tiled primitives the
// supernodal factorization is built on, at a representative panel
// shape, and report the arithmetic rate from each kernel's exact FLOP
// count:
//
//	go test ./internal/dense -run '^$' -bench 'RankK|Trsm'

// Panel shapes: a 192×48 update target receiving a rank-64 descendant,
// and a 384-row panel with 48 pivots (336 rows below the diagonal).
const (
	mkH, mkW, mkK = 192, 48, 64
	tsH, tsW      = 384, 48
)

// trapEntries is the number of lower-trapezoid entries a rank-k update
// of the 192×48 target writes.
const trapEntries = mkH*mkW - mkW*(mkW-1)/2

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkRankKTrapAccum(b *testing.B) {
	C := make([]float64, mkH*mkW)
	A := make([]float64, mkK*mkH)
	for i := range A {
		A[i] = float64(i%19)*0.125 - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.RankKTrapAccum(C, mkH, mkW, A, mkH, 0, mkK)
	}
	reportGFLOPS(b, 2*mkK*trapEntries)
}

func BenchmarkCRankKTrapAccum(b *testing.B) {
	C := make([]complex128, mkH*mkW)
	A := make([]complex128, mkK*mkH)
	d := make([]complex128, mkK)
	for i := range A {
		A[i] = complex(float64(i%19)*0.125-1, float64(i%7)*0.25)
	}
	for i := range d {
		d[i] = complex(2+float64(i%5), 0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.CRankKTrapAccum(C, mkH, mkW, A, mkH, 0, mkK, d)
	}
	reportGFLOPS(b, 8*mkK*trapEntries)
}

func BenchmarkTrsmLLBelow(b *testing.B) {
	P := make([]float64, tsH*tsW)
	for c := 0; c < tsW; c++ {
		for i := c; i < tsH; i++ {
			P[c*tsH+i] = float64((i+c)%13)*0.0625 + 0.01
		}
		P[c*tsH+c] = 3 + float64(c%4) // well-conditioned pivots
	}
	work := make([]float64, len(P))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, P)
		dense.TrsmLLBelow(work, tsH, tsW)
	}
	reportGFLOPS(b, (tsH-tsW)*tsW*tsW)
}

// The eigensolver benchmarks time the dense pole analysis at the size of
// the 256-port wide-band deck's E′ (320 internal nodes after the port
// partition), and the tridiagonal QL solve every Lanczos convergence
// check runs:
//
//	go test ./internal/dense -run '^$' -bench 'Eig'
const eigN = 320

func benchSym(n int) *dense.Mat {
	a := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := float64((i*7+j*13)%29)*0.03125 - 0.4
			if i == j {
				v += float64(n)
			}
			a.SetSym(i, j, v)
		}
	}
	return a
}

func BenchmarkSymEig(b *testing.B) {
	src := benchSym(eigN)
	work := dense.New(eigN, eigN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, src.Data)
		if _, _, err := dense.SymEig(work, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTridiagEig(b *testing.B) {
	alpha := make([]float64, eigN)
	beta := make([]float64, eigN-1)
	for i := range alpha {
		alpha[i] = 2 + float64(i%17)*0.125
	}
	for i := range beta {
		beta[i] = 0.5 + float64(i%5)*0.0625
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dense.TridiagEig(alpha, beta); err != nil {
			b.Fatal(err)
		}
	}
}
