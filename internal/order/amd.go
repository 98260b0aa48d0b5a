package order

import "repro/internal/sparse"

// AMD computes a fill-reducing permutation (new index -> old index) of
// the symmetric pattern a using the approximate minimum degree algorithm
// of Amestoy, Davis and Duff: a quotient graph with element absorption
// extended with supervariables. Indistinguishable
// variables — equal adjacency sets after a pivot — are merged into a
// weighted supervariable that is eliminated as a unit, and variables
// whose entire adjacency lies inside the pivot's element are mass
// eliminated together with the pivot. Both shrink the quotient graph far
// below the original vertex count on meshes, which is where the
// asymptotic win over plain minimum degree comes from.
//
// Values in a are ignored; the pattern must be structurally symmetric.
// The algorithm is serial and touches only index slices in a fixed
// order, so the permutation is a pure function of the pattern —
// independent of GOMAXPROCS, map iteration order, or scheduling.
func AMD(a *sparse.CSR) []int {
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
	ew := make([]int32, n)      // element weight: sum of nv over alive boundary members
	alive := make([]bool, n)    // supervariable alive (not eliminated or merged)?
	elAlive := make([]bool, n)  // element alive (not absorbed)?
	nv := make([]int32, n)      // weight: original variables in each supervariable
	// Each supervariable's merged originals form a linked group emitted
	// together when the representative is eliminated.
	groupNext := make([]int32, n)
	groupTail := make([]int32, n)
	for i := range alive {
		alive[i] = true
		nv[i] = 1
		groupNext[i] = -1
		groupTail[i] = int32(i)
	}

	// Degree bucket lists keyed by weighted approximate external degree.
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

	mark := make([]int, n) // visitation marks for L_k and set comparison
	mv := 0
	wStamp := make([]int32, n) // per-element weighted |L_e \ L_k| counters
	wVal := make([]int32, n)
	stamp := int32(0)
	lk := make([]int32, 0, 256)
	// Supervariable hash buckets, reset lazily by pivot stamp. The
	// arrays themselves are allocated on first use: tree-like graphs
	// never produce a multi-member L_k, and skipping four n-sized
	// allocations is measurable at 10^6 nodes.
	var hHead, hNext []int32
	var hStamp, hDone []int32
	hOf := make([]int32, 0, 256) // per-L_k-member bucket, parallel to lk

	perm := make([]int, 0, n)
	emit := func(i int32) {
		for x := i; x != -1; x = groupNext[x] {
			perm = append(perm, int(x))
		}
	}

	for len(perm) < n {
		for head[minDeg] == -1 {
			minDeg++
		}
		k := head[minDeg]
		remove(k)
		alive[k] = false
		emit(int32(k))

		// Build L_k: alive supervariables reachable from k directly or
		// through k's adjacent elements. Those elements are absorbed.
		// Boundary lists may hold stale merged ids (skipped here); their
		// weights ew are exact, because a merge moves weight between two
		// members of every element the merged pair shares.
		mv++
		mark[k] = mv
		lk = lk[:0]
		lkW := int32(0)
		for _, j := range varAdj[k] {
			if alive[j] && mark[j] != mv {
				mark[j] = mv
				lk = append(lk, j)
				lkW += nv[j]
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
					lkW += nv[j]
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
		// The new element's boundary is filled in after the update
		// passes, once mass elimination and supervariable merging have
		// settled who survives; nothing reads it this pivot.
		elAlive[k] = true

		// Pass 1: purge dead elements from each boundary variable's
		// element list and compute weighted w[e] = |L_e \ L_k| for every
		// element touching L_k, using the stamp-reset trick so each
		// element is initialized exactly once per pivot.
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
					wVal[e] = ew[e]
				}
				wVal[e] -= nv[i]
			}
			elAdj[i] = el
		}

		// Pass 2: purge variable adjacencies (edges inside L_k are now
		// represented by element k), absorb elements whose boundary is
		// contained in L_k, mass-eliminate members with no connections
		// outside the element, and recompute weighted approximate
		// external degrees
		//   d_i = w(A_i \ L_k) + (w(L_k) - nv_i) + sum over elements of
		//         w(L_e \ L_k).
		for _, i := range lk {
			va := varAdj[i][:0]
			vaW := int32(0)
			for _, j := range varAdj[i] {
				if alive[j] && mark[j] != mv {
					va = append(va, j)
					vaW += nv[j]
				}
			}
			varAdj[i] = va

			elSum := int32(0)
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
			if len(va) == 0 && elSum == 0 {
				// Mass elimination: i's entire adjacency lies inside the
				// new element, so eliminating it right after k adds no
				// fill. Emit its group now and shrink the pivot weight so
				// later members see a tighter degree. The only alive
				// element that will list i is k itself, and k's boundary
				// is built below from survivors only.
				remove(int(i))
				alive[i] = false
				emit(i)
				lkW -= nv[i]
				nv[i] = 0
				varAdj[i] = nil
				elAdj[i] = nil
				continue
			}
			el = append(el, int32(k))
			elAdj[i] = el

			d := int(vaW) + int(lkW-nv[i]) + int(elSum)
			if d > n-1 {
				d = n - 1
			}
			remove(int(i))
			insert(int(i), d)
			if d < minDeg {
				minDeg = d
			}
		}

		// Pass 3: supervariable detection. Surviving members of L_k with
		// equal adjacency sets are indistinguishable — they fill in
		// identically from here on — so merge them into one weighted
		// supervariable. Candidates are grouped by a cheap additive hash
		// and compared exactly with the mark array. Variable and element
		// indices share one index space without collision: element ids
		// are eliminated pivots, adjacency lists hold only alive ids.
		if len(lk) > 1 {
			if hHead == nil {
				hHead = make([]int32, n)
				hNext = make([]int32, n)
				hStamp = make([]int32, n)
				hDone = make([]int32, n)
			}
			hOf = hOf[:0]
			for _, i := range lk {
				if !alive[i] {
					hOf = append(hOf, -1)
					continue
				}
				h := uint64(0)
				for _, j := range varAdj[i] {
					h += uint64(j)
				}
				for _, e := range elAdj[i] {
					h += uint64(e)
				}
				b := int(h % uint64(n))
				hOf = append(hOf, int32(b))
				if hStamp[b] != stamp {
					hStamp[b] = stamp
					hHead[b] = -1
				}
				hNext[i] = hHead[b]
				hHead[b] = i
			}
			for li, i := range lk {
				if !alive[i] {
					continue
				}
				b := int(hOf[li])
				if b < 0 || hDone[b] == stamp {
					continue
				}
				hDone[b] = stamp
				for x := hHead[b]; x != -1; x = hNext[x] {
					if !alive[x] {
						continue
					}
					mv++
					for _, j := range varAdj[x] {
						mark[j] = mv
					}
					for _, e := range elAdj[x] {
						mark[e] = mv
					}
					merged := int32(0)
					for y := hNext[x]; y != -1; y = hNext[y] {
						if !alive[y] ||
							len(varAdj[y]) != len(varAdj[x]) ||
							len(elAdj[y]) != len(elAdj[x]) {
							continue
						}
						same := true
						for _, j := range varAdj[y] {
							if mark[j] != mv {
								same = false
								break
							}
						}
						if same {
							for _, e := range elAdj[y] {
								if mark[e] != mv {
									same = false
									break
								}
							}
						}
						if !same {
							continue
						}
						// Merge y into x: y's group is emitted with x's.
						remove(int(y))
						alive[y] = false
						groupNext[groupTail[x]] = y
						groupTail[x] = groupTail[y]
						merged += nv[y]
						nv[x] += nv[y]
						nv[y] = 0
						varAdj[y] = nil
						elAdj[y] = nil
					}
					if merged > 0 {
						// Tighten x's listed degree: the merged weight sat
						// in the (w(L_k) - nv_x) term and is external no
						// longer.
						d := degree[int(x)] - int(merged)
						if d < 0 {
							d = 0
						}
						remove(int(x))
						insert(int(x), d)
						if d < minDeg {
							minDeg = d
						}
					}
				}
			}
		}

		// Finalize element k: boundary and weight cover exactly the
		// members that survived mass elimination and merging.
		b := lk[:0] // reuse: lk is rebuilt next pivot
		for _, j := range lk {
			if alive[j] {
				b = append(b, j)
			}
		}
		if len(b) == 0 {
			elAlive[k] = false
			continue
		}
		bound[k] = append(make([]int32, 0, len(b)), b...)
		ew[k] = lkW
	}
	return perm
}
