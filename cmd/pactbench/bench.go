package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/chol"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/experiments"
	"repro/internal/netgen"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/stamp"
)

// BenchReport is the machine-readable benchmark output of pactbench
// -json: environment metadata plus serial (GOMAXPROCS=1) and parallel
// (ambient GOMAXPROCS) timings per kernel. The speedup field is the
// measured serial/parallel ratio on the machine that produced the file —
// meaningful only alongside num_cpu/gomaxprocs, which is why both are
// recorded.
type BenchReport struct {
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	BenchTimeNs int64         `json:"bench_time_ns"`
	Results     []BenchResult `json:"results"`
}

// BenchResult is one kernel's measurement. The factorization kernels
// additionally report their known FLOP count as a parallel-leg GFLOP/s
// rate plus the supernode count and amalgamation fill of the factor
// they exercise, so a report shows how the blocked kernel's arithmetic
// density changes alongside its wall-clock time.
type BenchResult struct {
	Name            string  `json:"name"`
	SerialNsPerOp   float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp float64 `json:"parallel_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	SerialIters     int     `json:"serial_iters"`
	ParallelIters   int     `json:"parallel_iters"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	GFLOPS          float64 `json:"gflops,omitempty"`
	Supernodes      int     `json:"supernodes,omitempty"`
	FillNNZ         int     `json:"fill_nnz,omitempty"`
	// The service rows (benchset "service") report a concurrent-client
	// workload instead of a serial/parallel pair: throughput, tail
	// latency, and the model-cache hit rate over the row's requests. For
	// those rows ParallelNsPerOp is the mean request latency and the
	// serial leg is not run (SerialNsPerOp and Speedup are zero).
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	P99NsPerOp     float64 `json:"p99_ns_per_op,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	// The multipoint rows (benchset "multipoint") report the reduced
	// model next to its wall time: retained pole count, max relative
	// Y(s) error against the dense oracle over the band, and the
	// multi-point stage splits (per-shift factorization under the shared
	// symbolic, basis union) from one instrumented run.
	Poles         int     `json:"poles,omitempty"`
	MaxRelErr     float64 `json:"max_rel_err,omitempty"`
	ShiftFactorNs float64 `json:"shift_factor_ns,omitempty"`
	BasisUnionNs  float64 `json:"basis_union_ns,omitempty"`
}

// benchCase is a named operation prepared once and timed under both
// GOMAXPROCS settings. flops, supernodes and fill are optional metadata
// copied into the result when nonzero.
type benchCase struct {
	name       string
	op         func() error
	flops      float64 // FLOPs per op, when the kernel's count is known
	supernodes int     // supernode count of the factor being exercised
	fill       int     // amalgamation fill (explicit zeros) of that factor
	procs      int     // parallel-leg GOMAXPROCS override (0 = ambient)
}

// measure times op until benchtime has elapsed (at least one iteration)
// and reports ns/op plus allocation rates from the runtime.MemStats
// deltas (global counters, so allocations on pool goroutines are
// included).
func measure(op func() error, benchtime time.Duration) (nsPerOp, allocsPerOp, bytesPerOp float64, iters int, err error) {
	if err := op(); err != nil { // warm-up: caches, one-time symbolic work
		return 0, 0, 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var elapsed time.Duration
	for elapsed < benchtime {
		if err := op(); err != nil {
			return 0, 0, 0, 0, err
		}
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n,
		iters, nil
}

// benchCases builds the benchmark set. "kernels" covers the parallelized
// primitives (fast enough for a CI smoke run), "factor" the supernodal
// factorization, solves and dense micro-kernels on a mesh at the paper's
// full-chip scale (seconds per iteration), "scale" the DAG-scheduled
// factorization of a 100k-node power grid at GOMAXPROCS 1/2/4/8, and
// "all" is everything plus end-to-end experiment regenerations.
func benchCases(set string) ([]benchCase, error) {
	var cases []benchCase
	if set == "kernels" || set == "all" {
		kc, err := kernelCases()
		if err != nil {
			return nil, err
		}
		cases = append(cases, kc...)
	}
	if set == "factor" || set == "all" {
		fc, err := factorCases()
		if err != nil {
			return nil, err
		}
		cases = append(cases, fc...)
	}
	if set == "scale" || set == "all" {
		sc, err := scaleCases()
		if err != nil {
			return nil, err
		}
		cases = append(cases, sc...)
	}
	if set == "all" {
		for _, name := range []string{"eq20", "sparsify"} {
			name := name
			cases = append(cases, benchCase{name: "experiments/" + name, op: func() error {
				return experiments.Run(name, io.Discard, false)
			}})
		}
	}
	return cases, nil
}

func kernelCases() ([]benchCase, error) {
	mat := dense.New(512, 512)
	mat2 := dense.New(512, 512)
	fillMat(mat, 1)
	fillMat(mat2, 2)
	vecMat := dense.New(1024, 1024)
	fillMat(vecMat, 3)
	vec := make([]float64, 1024)
	for i := range vec {
		vec[i] = float64(i%13) * 0.5
	}

	deck, ports, err := netgen.Mesh3D(netgen.SmallMeshOpts())
	if err != nil {
		return nil, err
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		return nil, err
	}
	sys := ex.Sys
	opts := core.Options{FMax: 3e9, Tol: 0.05}
	tr, _, err := core.Transform1(sys, opts)
	if err != nil {
		return nil, err
	}
	sweep := make([]float64, 16)
	for i := range sweep {
		sweep[i] = 1e7 * math.Pow(10, 3*float64(i)/15)
	}

	// Factorization/solve kernels on the permuted internal conductance
	// block of the same mesh (1496 internal nodes, so the analysis picks
	// the supernodal kernel); the solve pair runs the same 25
	// right-hand sides blocked versus one column at a time.
	sym := order.Analyze(sys.D, order.MinimumDegree)
	dperm := sys.D.PermuteSym(sym.Perm)
	an, err := chol.Analyze(dperm, sym)
	if err != nil {
		return nil, err
	}
	factSuper, err := an.Factorize(dperm, nil)
	if err != nil {
		return nil, err
	}
	nrhs := sys.M
	rhs := make([]float64, nrhs*sys.N)
	for i := range rhs {
		rhs[i] = float64(i%17)*0.25 + 1
	}
	work := make([]float64, len(rhs))
	solveFlops := 4 * float64(factSuper.NNZ()) * float64(nrhs)

	return []benchCase{
		{name: "dense.Mul/512x512", op: func() error {
			dense.Mul(mat, mat2)
			return nil
		}},
		{name: "dense.MulVec/1024x1024", op: func() error {
			vecMat.MulVec(vec)
			return nil
		}},
		{name: "chol.Factorize/mesh25/supernodal", op: func() error {
			_, err := an.Factorize(dperm, nil)
			return err
		}, flops: factSuper.FlopEstimate(), supernodes: factSuper.Supernodes(), fill: factSuper.AmalgamatedFill()},
		{name: "chol.SolveMulti/mesh25x25", op: func() error {
			copy(work, rhs)
			factSuper.SolveMulti(work, nrhs)
			return nil
		}, flops: solveFlops},
		{name: "chol.Solve/mesh25x25/sequential", op: func() error {
			copy(work, rhs)
			for j := 0; j < nrhs; j++ {
				factSuper.Solve(work[j*sys.N : (j+1)*sys.N])
			}
			return nil
		}, flops: solveFlops},
		{name: "core.Transform1/mesh25", op: func() error {
			_, _, err := core.Transform1(sys, opts)
			return err
		}},
		{name: "core.RPrimeBlock/mesh25", op: func() error {
			tr.RPrimeBlock()
			return nil
		}},
		{name: "core.YSweep/mesh25x16", op: func() error {
			_, err := sys.YSweep(sweep, par.Workers(len(sweep)))
			return err
		}},
		{name: "core.Reduce/mesh25", op: func() error {
			_, _, err := core.Reduce(sys, opts)
			return err
		}},
	}, nil
}

// factorCases times the supernodal kernel on a mesh large enough that
// blocking matters: ~20k internal nodes and 64 ports. Iterations take
// seconds, so these run in the "factor"/"all" sets rather than the CI
// "kernels" smoke set. (The up-looking comparison that sets the kernel
// threshold is BenchmarkKernelThreshold in internal/chol.)
func factorCases() ([]benchCase, error) {
	deck, ports, err := netgen.Mesh3D(netgen.LargeMeshOpts(64))
	if err != nil {
		return nil, err
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		return nil, err
	}
	sys := ex.Sys
	opts := core.Options{FMax: 3e9, Tol: 0.05}
	sym := order.Analyze(sys.D, order.MinimumDegree)
	dperm := sys.D.PermuteSym(sym.Perm)
	an, err := chol.Analyze(dperm, sym)
	if err != nil {
		return nil, err
	}
	factSuper, err := an.Factorize(dperm, nil)
	if err != nil {
		return nil, err
	}
	const nrhs = 64
	rhs := make([]float64, nrhs*sys.N)
	for i := range rhs {
		rhs[i] = float64(i%17)*0.25 + 1
	}
	rwork := make([]float64, len(rhs))

	// Complex LDLᵀ on the same mesh at one AC point: the D + sE union
	// pattern is analyzed once (as a frequency sweep would) and every
	// iteration pays only the numeric panels through the precomputed
	// supernodal routing.
	union := sparse.PatternUnion(sys.D, sys.E)
	symU := order.Analyze(union, order.MinimumDegree)
	dp := sys.D.PermuteSym(symU.Perm)
	ep := sys.E.PermuteSym(symU.Perm)
	pat := sparse.PatternUnion(dp, ep)
	dPos, ePos := alignPositions(pat, dp, ep)
	sv := complex(0, 2*math.Pi*1e9)
	val := func(p int) complex128 {
		var v complex128
		if q := dPos[p]; q >= 0 {
			v += complex(dp.Val[q], 0)
		}
		if q := ePos[p]; q >= 0 {
			v += sv * complex(ep.Val[q], 0)
		}
		return v
	}
	anU, err := chol.Analyze(pat, symU)
	if err != nil {
		return nil, err
	}
	factC, err := anU.FactorizeComplex(val, nil)
	if err != nil {
		return nil, err
	}
	// The union pattern's values are D + E, itself SPD: its real factor
	// reports the panel statistics the complex rows share.
	factU, err := anU.Factorize(pat, nil)
	if err != nil {
		return nil, err
	}
	crhs := make([]complex128, nrhs*sys.N)
	for i := range crhs {
		crhs[i] = complex(float64(i%17)*0.25+1, float64(i%11)*0.5-2)
	}
	cwork := make([]complex128, len(crhs))

	// Dense micro-kernel rows: the tiled primitives the supernodal panels
	// are built on, at a representative panel shape, with exact FLOP
	// counts so the report shows the per-kernel arithmetic rate the
	// factorization composes.
	const (
		mkH, mkW, mkK = 192, 48, 64 // update target 192×48, rank-64 descendant
		tsH, tsW      = 384, 48     // triangular solve: 48 pivots, 336 below rows
	)
	mkEntries := float64(mkH*mkW - mkW*(mkW-1)/2) // trapezoid entries
	mkC := make([]float64, mkH*mkW)
	mkA := make([]float64, mkK*mkH)
	mkCC := make([]complex128, mkH*mkW)
	mkCA := make([]complex128, mkK*mkH)
	mkD := make([]complex128, mkK)
	for i := range mkA {
		mkA[i] = float64(i%19)*0.125 - 1
		mkCA[i] = complex(float64(i%19)*0.125-1, float64(i%7)*0.25)
	}
	for i := range mkD {
		mkD[i] = complex(2+float64(i%5), 0.5)
	}
	tsP := make([]float64, tsH*tsW)
	for c := 0; c < tsW; c++ {
		for i := c; i < tsH; i++ {
			tsP[c*tsH+i] = float64((i+c)%13)*0.0625 + 0.01
		}
		tsP[c*tsH+c] = 3 + float64(c%4) // well-conditioned pivots
	}
	tsWork := make([]float64, tsH*tsW)

	return []benchCase{
		{name: "chol.Factorize/meshL/supernodal", op: func() error {
			_, err := an.Factorize(dperm, nil)
			return err
		}, flops: factSuper.FlopEstimate(), supernodes: factSuper.Supernodes(), fill: factSuper.AmalgamatedFill()},
		{name: "core.Transform1/meshL/supernodal", op: func() error {
			_, _, err := core.Transform1(sys, opts)
			return err
		}, supernodes: factSuper.Supernodes(), fill: factSuper.AmalgamatedFill()},
		{name: "chol.FactorizeComplex/meshL/supernodal", op: func() error {
			_, err := anU.FactorizeComplex(val, nil)
			return err
		}, flops: 4 * factU.FlopEstimate(), supernodes: factU.Supernodes(), fill: factU.AmalgamatedFill()},
		{name: "chol.SolveMulti/meshLx64", op: func() error {
			copy(rwork, rhs)
			factSuper.SolveMulti(rwork, nrhs)
			return nil
		}, flops: 4 * float64(factSuper.NNZ()) * nrhs},
		{name: "chol.ComplexSolveMulti/meshLx64", op: func() error {
			copy(cwork, crhs)
			return factC.SolveMulti(cwork, nrhs)
		}, flops: 16 * float64(factU.NNZ()) * nrhs},
		{name: "dense.RankKTrapAccum/192x48k64", op: func() error {
			dense.RankKTrapAccum(mkC, mkH, mkW, mkA, mkH, 0, mkK)
			return nil
		}, flops: 2 * float64(mkK) * mkEntries},
		{name: "dense.CRankKTrapAccum/192x48k64", op: func() error {
			dense.CRankKTrapAccum(mkCC, mkH, mkW, mkCA, mkH, 0, mkK, mkD)
			return nil
		}, flops: 8 * float64(mkK) * mkEntries},
		{name: "dense.TrsmLLBelow/384x48", op: func() error {
			copy(tsWork, tsP)
			dense.TrsmLLBelow(tsWork, tsH, tsW)
			return nil
		}, flops: float64(tsH-tsW) * float64(tsW) * float64(tsW)},
	}, nil
}

// scaleCases measures the DAG-scheduled supernodal factorization of a
// ≥100k-node power grid at GOMAXPROCS 1/2/4/8 (each row's serial leg is
// the same GOMAXPROCS=1 run, so the speedup column is the schedule's
// scaling curve), plus the pooled-workspace re-factorization loop whose
// allocs_per_op column pins the steady-state allocation behavior the
// AC sweep depends on. Setup extracts and orders the mesh once;
// iterations pay only numeric factorization.
func scaleCases() ([]benchCase, error) {
	deck, ports, err := netgen.PowerGrid(netgen.PowerGridPreset(100_000))
	if err != nil {
		return nil, err
	}
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		return nil, err
	}
	sys := ex.Sys
	sym := order.Analyze(sys.D, order.MinimumDegree)
	dperm := sys.D.PermuteSym(sym.Perm)
	an, err := chol.Analyze(dperm, sym)
	if err != nil {
		return nil, err
	}
	f, err := an.Factorize(dperm, nil)
	if err != nil {
		return nil, err
	}
	flops, supernodes, fill := f.FlopEstimate(), f.Supernodes(), f.AmalgamatedFill()
	var cases []benchCase
	for _, p := range []int{1, 2, 4, 8} {
		ws := an.NewWorkspace()
		cases = append(cases, benchCase{
			name:  fmt.Sprintf("chol.Factorize/grid100k/p%d", p),
			procs: p,
			op: func() error {
				_, err := an.Factorize(dperm, ws)
				return err
			},
			flops: flops, supernodes: supernodes, fill: fill,
		})
	}
	// The repeated-refactorization loop: one workspace, real and complex
	// passes plus a multi-RHS solve per op — the YSweep steady state.
	wsLoop := an.NewWorkspace()
	val := func(p int) complex128 {
		return complex(dperm.Val[p], 0.25*dperm.Val[p])
	}
	nrhs := len(ports)
	rhs := make([]float64, nrhs*sys.N)
	for i := range rhs {
		rhs[i] = float64(i%17)*0.25 + 1
	}
	cases = append(cases, benchCase{
		name: "chol.Refactorize/grid100k/pooled",
		op: func() error {
			f, err := an.Factorize(dperm, wsLoop)
			if err != nil {
				return err
			}
			f.SolveMulti(rhs, nrhs)
			_, err = an.FactorizeComplex(val, wsLoop)
			return err
		},
		flops: 5 * flops, supernodes: supernodes, fill: fill,
	})
	return cases, nil
}

// alignPositions maps each stored position of the union pattern to the
// matching position in a and b (-1 when absent), so a complex value
// closure can assemble D + sE without per-entry searches.
func alignPositions(pat, a, b *sparse.CSR) (aPos, bPos []int) {
	aPos = make([]int, pat.NNZ())
	bPos = make([]int, pat.NNZ())
	for p := range aPos {
		aPos[p] = -1
		bPos[p] = -1
	}
	for i := 0; i < pat.Rows; i++ {
		pa := a.RowPtr[i]
		pb := b.RowPtr[i]
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			j := pat.Col[p]
			for pa < a.RowPtr[i+1] && a.Col[pa] < j {
				pa++
			}
			if pa < a.RowPtr[i+1] && a.Col[pa] == j {
				aPos[p] = pa
			}
			for pb < b.RowPtr[i+1] && b.Col[pb] < j {
				pb++
			}
			if pb < b.RowPtr[i+1] && b.Col[pb] == j {
				bPos[p] = pb
			}
		}
	}
	return aPos, bPos
}

func fillMat(m *dense.Mat, seed uint64) {
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(int64(s>>11)) / float64(1<<52)
	}
}

// runBenchJSON executes the benchmark set serially (GOMAXPROCS=1) and at
// the ambient GOMAXPROCS and writes the report as JSON to path ("-" for
// stdout).
func runBenchJSON(path, set string, benchtime time.Duration, stdout io.Writer) error {
	if set != "kernels" && set != "factor" && set != "scale" && set != "frontend" && set != "service" && set != "multipoint" && set != "all" {
		return fmt.Errorf("unknown -benchset %q (want kernels, factor, scale, frontend, service, multipoint or all)", set)
	}
	if benchtime <= 0 {
		return fmt.Errorf("-benchtime must be positive, got %v", benchtime)
	}
	cases, err := benchCases(set)
	if err != nil {
		return err
	}
	ambient := runtime.GOMAXPROCS(0)
	report := &BenchReport{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  ambient,
		BenchTimeNs: benchtime.Nanoseconds(),
	}
	for _, bc := range cases {
		runtime.GOMAXPROCS(1)
		serialNs, _, _, serialIters, err := measure(bc.op, benchtime)
		if bc.procs > 0 {
			runtime.GOMAXPROCS(bc.procs)
		} else {
			runtime.GOMAXPROCS(ambient)
		}
		if err != nil {
			runtime.GOMAXPROCS(ambient)
			return fmt.Errorf("%s (serial): %w", bc.name, err)
		}
		parNs, allocs, bytes, parIters, err := measure(bc.op, benchtime)
		runtime.GOMAXPROCS(ambient)
		if err != nil {
			return fmt.Errorf("%s (parallel): %w", bc.name, err)
		}
		res := BenchResult{
			Name:            bc.name,
			SerialNsPerOp:   serialNs,
			ParallelNsPerOp: parNs,
			Speedup:         serialNs / parNs,
			SerialIters:     serialIters,
			ParallelIters:   parIters,
			AllocsPerOp:     allocs,
			BytesPerOp:      bytes,
			Supernodes:      bc.supernodes,
			FillNNZ:         bc.fill,
		}
		if bc.flops > 0 && parNs > 0 {
			res.GFLOPS = bc.flops / parNs // flop/ns = 1e9 flop/s
		}
		report.Results = append(report.Results, res)
	}
	if set == "frontend" || set == "all" {
		rows, err := frontendResults(benchtime)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rows...)
	}
	if set == "service" || set == "all" {
		rows, err := serviceResults(benchtime)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rows...)
	}
	if set == "multipoint" || set == "all" {
		rows, err := multipointResults(benchtime)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rows...)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d benchmarks, GOMAXPROCS %d, %d CPUs)\n",
		path, len(report.Results), ambient, report.NumCPU)
	return nil
}
