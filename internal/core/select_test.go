package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dense"
)

// The pole-selection references. selectPoles replaced three truncation
// rules; the two it subsumes bit for bit are kept here verbatim as its
// oracle, beside the slowest-first cap it replaced on the single-point
// back end, which the oracle suite measures the selector against.

// selectStrongestPoles enforces an opts.MaxPoles budget on the
// multi-point model. The single-point path truncates by eigenvalue
// (keep the slowest poles); with hundreds of ports that wastes budget
// on slow modes the ports barely couple to. Here the budget goes to
// the poles with the largest band-edge score (poleScores), ties broken
// toward the slower pole, and the kept set is re-sorted λ-descending so
// the model keeps the ordering every consumer (and
// check.PoleRealNonneg) expects. A budget of zero (no cap) or one that
// already holds every pole returns vals and rk unchanged.
func selectStrongestPoles(vals []float64, rk *dense.Mat, budget int, fmax float64) ([]float64, *dense.Mat) {
	if budget <= 0 || len(vals) <= budget {
		return vals, rk
	}
	score := poleScores(vals, rk, fmax)
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] > score[idx[b]] })
	sel := idx[:budget]
	// vals arrives λ-descending, so ascending index order restores it.
	sort.Ints(sel)
	return selectRows(vals, rk, sel)
}

// pruneWeakPoles drops retained poles whose worst-case contribution to
// the admittance below FMax (poleScores) is smaller than
// ResiduePruneTol times the port-block admittance scale at FMax.
func pruneWeakPoles(model *ReducedModel, opts Options, stats *Stats) *ReducedModel {
	m := model.M
	wmax := 2 * math.Pi * opts.FMax
	// Admittance scale at f_max from the exact port blocks.
	scale := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := math.Abs(model.A.At(i, j)) + wmax*math.Abs(model.B.At(i, j))
			if v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		return model
	}
	var rows []int
	for p, s := range poleScores(model.Lambda, model.R, opts.FMax) {
		if s >= opts.ResiduePruneTol*scale {
			rows = append(rows, p)
		}
	}
	if len(rows) == len(model.Lambda) {
		return model
	}
	stats.PolesPruned += len(model.Lambda) - len(rows)
	stats.PolesFound = len(rows)
	lambda, rk := selectRows(model.Lambda, model.R, rows)
	return &ReducedModel{M: m, Lambda: lambda, A: model.A, B: model.B, R: rk}
}

// strongestThenPrune is the multi-point pole selection before the one
// selector: selectStrongestPoles under the cap, then pruneWeakPoles
// when a threshold is set. It returns the model and the poles pruned.
func strongestThenPrune(uncapped *ReducedModel, opts Options) (*ReducedModel, int) {
	vals, rk := selectStrongestPoles(uncapped.Lambda, uncapped.R, opts.MaxPoles, opts.FMax)
	model := &ReducedModel{M: uncapped.M, Lambda: vals, A: uncapped.A, B: uncapped.B, R: rk}
	var st Stats
	if opts.ResiduePruneTol > 0 && len(vals) > 0 {
		model = pruneWeakPoles(model, opts, &st)
	}
	return model, st.PolesPruned
}

// slowestPoles is the single-point cap before the one selector: the
// budget slowest poles (largest λ), whatever their port coupling.
func slowestPoles(model *ReducedModel, budget int) *ReducedModel {
	if budget <= 0 || model.K() <= budget {
		return model
	}
	rows := make([]int, budget)
	for i := range rows {
		rows[i] = i
	}
	vals, rk := selectRows(model.Lambda, model.R, rows)
	return &ReducedModel{M: model.M, Lambda: vals, A: model.A, B: model.B, R: rk}
}

// selectModel runs selectPoles on an uncapped model.
func selectModel(uncapped *ReducedModel, opts Options) (*ReducedModel, int) {
	vals, rk, pruned := selectPoles(uncapped.Lambda, uncapped.R, uncapped.A, uncapped.B, opts)
	return &ReducedModel{M: uncapped.M, Lambda: vals, A: uncapped.A, B: uncapped.B, R: rk}, pruned
}

// syntheticPoles builds k poles λ-descending on m ports with residue
// rows spanning four decades, exact port blocks of unit scale, and, for
// the tie cases, two exact score ties: pole 3 repeats pole 2's λ with
// its row reversed (the same ‖r‖² bits), and the last two poles have
// zero rows (score 0 whatever λ).
func syntheticPoles(rng *rand.Rand, m, k int, zeroScale bool) *ReducedModel {
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = math.Pow(10, -2*rng.Float64())
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	rk := dense.New(k, m)
	for i := 0; i < k-2; i++ {
		mag := math.Pow(10, -4*rng.Float64())
		for j := 0; j < m; j++ {
			rk.Set(i, j, mag*rng.NormFloat64())
		}
	}
	vals[3] = vals[2]
	for j := 0; j < m; j++ {
		rk.Set(3, j, rk.At(2, m-1-j))
	}
	a, b := dense.New(m, m), dense.New(m, m)
	if !zeroScale {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a.Set(i, j, rng.NormFloat64())
				b.Set(i, j, 0.1*rng.NormFloat64())
			}
		}
	}
	return &ReducedModel{M: m, Lambda: vals, A: a, B: b, R: rk}
}

// TestSelectPolesMatchesStrongestThenPrune pins the one selector
// against the composition it replaced, Float64bits-equal, together
// with the pruned count: cap only, threshold only, both, exact score
// ties at the cap and at the threshold, and a zero admittance scale
// (threshold off, cap still on). It runs on synthetic pole sets and on
// the uncapped multi-point model of a graded grid.
func TestSelectPolesMatchesStrongestThenPrune(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2801))
	fixture, _, err := Reduce(multiPointFixture(t), Options{FMax: 0.05, Shifts: []float64{0, 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		fmax float64
		m    *ReducedModel
	}{
		{"graded grid, multi-point", 0.05, fixture},
		{"zero admittance scale", 1, syntheticPoles(rng, 3, 12, true)},
	}
	for trial := 0; trial < 8; trial++ {
		models = append(models, struct {
			name string
			fmax float64
			m    *ReducedModel
		}{"synthetic", 1, syntheticPoles(rng, 1+trial%4, 12, false)})
	}
	var capCut, thrCut, both int
	for _, tc := range models {
		k := tc.m.K()
		for _, budget := range []int{0, 1, 2, 3, k / 2, k - 2, k - 1, k, k + 5} {
			for _, tol := range []float64{0, 1e-8, 1e-5, 1e-3, 1e-2, 0.1, 10} {
				opts := Options{FMax: tc.fmax, MaxPoles: budget, ResiduePruneTol: tol}
				want, wantPruned := strongestThenPrune(tc.m, opts)
				got, gotPruned := selectModel(tc.m, opts)
				pinModelBits(t, tc.name, got, want)
				if gotPruned != wantPruned {
					t.Fatalf("%s (cap %d, tol %g): pruned %d, want %d", tc.name, budget, tol, gotPruned, wantPruned)
				}
				capped := budget > 0 && budget < k
				switch {
				case capped && gotPruned > 0:
					both++
				case capped:
					capCut++
				case gotPruned > 0:
					thrCut++
				}
			}
		}
	}
	if capCut == 0 || thrCut == 0 || both == 0 {
		t.Fatalf("cases exercised: cap only %d, threshold only %d, both %d; want each > 0", capCut, thrCut, both)
	}
}
