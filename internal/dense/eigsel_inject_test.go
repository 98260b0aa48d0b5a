//go:build pactcheck

package dense

import (
	"math"
	"testing"

	"repro/internal/resilience/inject"
)

// TestSymEigAboveFallbackIsSymEig drives dense.inviter: an inverse
// iteration that misses the convergence test makes SymEigAbove finish
// the full SymEig solve from its reduction and report it, returning
// SymEig's eigenpairs bit for bit (signs normalized), here all of them.
func TestSymEigAboveFallbackIsSymEig(t *testing.T) {
	for _, tc := range selCases() {
		n := tc.a.R
		if n == 1 {
			continue // a 1×1 matrix needs no inverse iteration
		}
		allVals, allVecs, err := SymEig(tc.a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		s := inject.NewSchedule().Arm(inject.DenseInvIter, 0)
		inject.Install(s)
		vals, vt, fallback, err := SymEigAbove(tc.a.Clone(), math.Inf(-1))
		inject.Reset()
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.name, n, err)
		}
		k := len(vals)
		if s.Fired(inject.DenseInvIter) != 1 || fallback == nil {
			t.Fatalf("%s n=%d: fired %d times, fallback %v", tc.name, n, s.Fired(inject.DenseInvIter), fallback)
		}
		want := make([]float64, k)
		ref := New(k, n)
		for c := range want {
			want[c] = allVals[n-1-c]
			row := ref.Row(c)
			for i := range row {
				row[i] = allVecs.At(i, n-1-c)
			}
			normalizeSign(row)
		}
		requireSameBits(t, tc.name+" fallback values", vals, want)
		requireSameBits(t, tc.name+" fallback vectors", vt.Data, ref.Data)
	}
}
