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
		sym := order.Analyze(m.a, order.MinimumDegree)
		ap := m.a.PermuteSym(sym.Perm)
		ss, err := analyzeSuper(ap, sym, order.SupernodeOptions{})
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
