package stamp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/netgen"
	"repro/internal/sparse"
)

func csrBitsEqual(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.Rows; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for p := range a.Col {
		if a.Col[p] != b.Col[p] || math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return false
		}
	}
	return true
}

// TestExtractBitIdenticalAcrossGOMAXPROCS pins the determinism contract
// of the bucketed stamping loop and the parallel CSR build: the
// partitioned system must match the 1-proc result bit for bit at every
// worker count. The grid is large enough for several stamping chunks
// and Build row chunks.
func TestExtractBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	deck, ports, err := netgen.PowerGrid(netgen.PowerGridPreset(20_000))
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	base, err := Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		ex, err := Extract(deck, ports...)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for _, m := range []struct {
			name      string
			want, got *sparse.CSR
		}{
			{"A", base.Sys.A, ex.Sys.A},
			{"B", base.Sys.B, ex.Sys.B},
			{"Q", base.Sys.Q, ex.Sys.Q},
			{"R", base.Sys.R, ex.Sys.R},
			{"D", base.Sys.D, ex.Sys.D},
			{"E", base.Sys.E, ex.Sys.E},
		} {
			if !csrBitsEqual(m.want, m.got) {
				t.Fatalf("GOMAXPROCS=%d: partitioned block %s differs from serial extract", procs, m.name)
			}
		}
	}
}

func TestExtractRecordsStageTimes(t *testing.T) {
	deck, ports, err := netgen.PowerGrid(netgen.PowerGridPreset(5_000))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.StampNs <= 0 || ex.AssembleNs <= 0 {
		t.Fatalf("stage times not recorded: stamp %d assemble %d", ex.StampNs, ex.AssembleNs)
	}
}
