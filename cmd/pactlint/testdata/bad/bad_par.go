package bad

import "repro/internal/par"

// SharedSum seeds the two canonical determinism violations the
// worker-pool discipline exists to prevent: an unindexed captured write
// (sharedwrite) and an order-dependent floating-point reduction
// (fpreduce) inside a parallel callback.
func SharedSum(xs []float64) float64 {
	sum := 0.0
	var last float64
	par.ForWorkers(len(xs), func(w, i int) {
		sum += xs[i]
		last = xs[i]
	})
	return sum + last
}

// LeakOrder seeds a maporder violation: map iteration order reaches the
// returned slice unsorted.
func LeakOrder(m map[string]float64) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	return names
}

// DAGShared seeds the sharedwrite/fpreduce violations through the DAG
// scheduler entry point: par.RunDAG callbacks run on pool workers and
// must obey the same slot-indexed write discipline as par.ForWorkers bodies.
func DAGShared(d *par.DAG, xs []float64) float64 {
	total := 0.0
	par.RunDAG(2, d, func(w, s int) {
		total += xs[s]
	})
	return total
}
