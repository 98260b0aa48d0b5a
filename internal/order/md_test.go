package order

import "repro/internal/sparse"

// MinDegree is AMD's fill oracle in the tests: it computes a
// fill-reducing permutation (new index -> old index) of the symmetric
// pattern a using a quotient-graph minimum-degree algorithm with
// approximate external degrees and element absorption, in the style of
// Amestoy/Davis/Duff AMD but without supervariables. Values in a are
// ignored; the pattern must be structurally symmetric.
//
// The quotient graph represents the fill produced by elimination
// implicitly: eliminating variable k turns it into an "element" whose
// boundary is the set of still-alive variables adjacent to k either
// directly or through previously formed elements. Elements adjacent to k
// are absorbed into the new element, which keeps the representation no
// larger than the original graph plus one boundary list per pivot.
func MinDegree(a *sparse.CSR) []int {
	n := a.Rows
	if n == 0 {
		return nil
	}
	// Variable-variable adjacency (alive entries only; purged as the
	// algorithm runs) and variable-element adjacency (purged lazily).
	varAdj := make([][]int32, n)
	elAdj := make([][]int32, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		adj := make([]int32, 0, len(cols))
		for _, j := range cols {
			if j != i {
				adj = append(adj, int32(j))
			}
		}
		varAdj[i] = adj
	}
	bound := make([][]int32, n) // element boundary lists, indexed by pivot
	alive := make([]bool, n)    // variable alive?
	elAlive := make([]bool, n)  // element alive (not absorbed)?
	for i := range alive {
		alive[i] = true
	}

	// Degree bucket lists.
	head := make([]int, n+1)
	next := make([]int, n)
	prev := make([]int, n)
	degree := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	insert := func(i, d int) {
		degree[i] = d
		next[i] = head[d]
		prev[i] = -1
		if head[d] != -1 {
			prev[head[d]] = i
		}
		head[d] = i
	}
	remove := func(i int) {
		d := degree[i]
		if prev[i] != -1 {
			next[prev[i]] = next[i]
		} else {
			head[d] = next[i]
		}
		if next[i] != -1 {
			prev[next[i]] = prev[i]
		}
	}
	for i := 0; i < n; i++ {
		insert(i, len(varAdj[i]))
	}
	minDeg := 0

	mark := make([]int, n) // visitation marks for L_k construction
	mv := 0
	wStamp := make([]int, n) // per-element |L_e \ L_k| counters
	wVal := make([]int, n)
	stamp := 0
	lk := make([]int32, 0, 256)

	perm := make([]int, 0, n)
	for len(perm) < n {
		for head[minDeg] == -1 {
			minDeg++
		}
		k := head[minDeg]
		remove(k)
		alive[k] = false
		perm = append(perm, k)

		// Build L_k: alive variables reachable from k directly or through
		// k's adjacent elements. Those elements are absorbed into k.
		mv++
		mark[k] = mv
		lk = lk[:0]
		for _, j := range varAdj[k] {
			if alive[j] && mark[j] != mv {
				mark[j] = mv
				lk = append(lk, j)
			}
		}
		for _, e := range elAdj[k] {
			if !elAlive[e] {
				continue
			}
			for _, j := range bound[e] {
				if alive[j] && mark[j] != mv {
					mark[j] = mv
					lk = append(lk, j)
				}
			}
			elAlive[e] = false
			bound[e] = nil
		}
		varAdj[k] = nil
		elAdj[k] = nil
		if len(lk) == 0 {
			continue
		}
		bound[k] = append([]int32(nil), lk...)
		elAlive[k] = true

		// Pass 1: purge dead elements from each boundary variable's element
		// list and compute w[e] = |L_e \ L_k| for every element touching
		// L_k, using the stamp-reset trick so each element is initialized
		// exactly once per pivot.
		stamp++
		for _, i := range lk {
			el := elAdj[i][:0]
			for _, e := range elAdj[i] {
				if !elAlive[e] {
					continue
				}
				el = append(el, e)
				if wStamp[e] != stamp {
					wStamp[e] = stamp
					wVal[e] = len(bound[e])
				}
				wVal[e]--
			}
			elAdj[i] = el
		}

		// Pass 2: purge variable adjacencies (edges inside L_k are now
		// represented by element k), absorb elements whose boundary is
		// contained in L_k, and recompute approximate external degrees
		//   d_i = |A_i \ L_k| + (|L_k| - 1) + sum over other elements of
		//         |L_e \ L_k|.
		for _, i := range lk {
			va := varAdj[i][:0]
			for _, j := range varAdj[i] {
				if alive[j] && mark[j] != mv {
					va = append(va, j)
				}
			}
			varAdj[i] = va

			elSum := 0
			el := elAdj[i][:0]
			for _, e := range elAdj[i] {
				if !elAlive[e] {
					continue
				}
				if wVal[e] == 0 {
					// L_e is a subset of L_k: absorb e into k.
					elAlive[e] = false
					bound[e] = nil
					continue
				}
				el = append(el, e)
				elSum += wVal[e]
			}
			el = append(el, int32(k))
			elAdj[i] = el

			d := len(va) + len(lk) - 1 + elSum
			if d > n-1 {
				d = n - 1
			}
			remove(int(i))
			insert(int(i), d)
			if d < minDeg {
				minDeg = d
			}
		}
	}
	return perm
}
