package dense

import (
	"math"
	"runtime"
	"testing"
)

// lcgFill fills m with a deterministic pseudo-random pattern (including
// exact zeros, to exercise the structural-zero skip).
func lcgFill(m *Mat, seed uint64) {
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		v := float64(int64(s>>11)) / float64(1<<52)
		if s%37 == 0 {
			v = 0
		}
		m.Data[i] = v
	}
}

func mulNaive(a, b *Mat) *Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestMulBlockedMatchesNaiveBitwise pins the tiled kernel to the naive
// triple loop: identical accumulation order means identical bits.
func TestMulBlockedMatchesNaiveBitwise(t *testing.T) {
	for _, dims := range [][3]int{{3, 5, 4}, {65, 64, 67}, {130, 257, 96}, {200, 300, 150}} {
		a, b := New(dims[0], dims[1]), New(dims[1], dims[2])
		lcgFill(a, 1)
		lcgFill(b, 2)
		bitsEqual(t, "blocked vs naive", Mul(a, b).Data, mulNaive(a, b).Data)
	}
}

// TestMulDeterministicAcrossGOMAXPROCS is the parallel-determinism
// contract of the ISSUE: the row-panel parallel product must be
// bit-identical at GOMAXPROCS 1 and 4. Not t.Parallel: it mutates the
// process-wide GOMAXPROCS.
func TestMulDeterministicAcrossGOMAXPROCS(t *testing.T) {
	a, b := New(300, 280), New(280, 310) // above the serial threshold
	lcgFill(a, 3)
	lcgFill(b, 4)
	old := runtime.GOMAXPROCS(1)
	serial := Mul(a, b)
	runtime.GOMAXPROCS(4)
	parallel := Mul(a, b)
	runtime.GOMAXPROCS(old)
	bitsEqual(t, "Mul across GOMAXPROCS", parallel.Data, serial.Data)
}

func TestMulVecDeterministicAcrossGOMAXPROCS(t *testing.T) {
	m := New(400, 380)
	lcgFill(m, 5)
	x := make([]float64, 380)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	old := runtime.GOMAXPROCS(1)
	serial := m.MulVec(x)
	runtime.GOMAXPROCS(4)
	parallel := m.MulVec(x)
	runtime.GOMAXPROCS(old)
	bitsEqual(t, "MulVec across GOMAXPROCS", parallel, serial)
}

func TestSetSym(t *testing.T) {
	t.Parallel()
	m := New(4, 4)
	m.SetSym(1, 3, 2.5)
	m.SetSym(2, 2, -1)
	if m.At(1, 3) != 2.5 || m.At(3, 1) != 2.5 || m.At(2, 2) != -1 {
		t.Fatalf("SetSym wrote %v", m.Data)
	}
	// A matrix filled through SetSym is exactly symmetric.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				t.Fatalf("SetSym left asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// BenchmarkMul512 times the 512×512 blocked dense product; its
// parallel speedup is the ratio of the -cpu legs:
//
//	go test ./internal/dense -run '^$' -bench Mul -cpu 1,2,4
func BenchmarkMul512(b *testing.B) {
	x, y := New(512, 512), New(512, 512)
	lcgFill(x, 7)
	lcgFill(y, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

// BenchmarkMulVec1024 times the row-panel parallel matrix-vector
// product at 1024×1024.
func BenchmarkMulVec1024(b *testing.B) {
	m := New(1024, 1024)
	lcgFill(m, 3)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i%13) * 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}
