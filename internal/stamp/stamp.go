// Package stamp connects SPICE decks to the PACT matrix world: Extract
// loads the RC elements of a deck into the partitioned conductance and
// susceptance matrices (with automatic port detection, as in the RCFIT
// flow of the paper's Figure 1), and Realize unstamps a reduced model
// back into SPICE R and C cards.
package stamp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// Extraction is the result of pulling the RC network out of a deck.
type Extraction struct {
	// Sys is the partitioned system (ports first).
	Sys *core.System
	// PortNames maps System port index to node name.
	PortNames []string
	// InternalNames maps System internal index to node name.
	InternalNames []string
	// RCElements are the extracted resistor/capacitor cards (to be
	// replaced by the reduced network).
	RCElements []netlist.Element
	// OtherElements is everything else (sources, MOSFETs, ...).
	OtherElements []netlist.Element
	// DroppedElements are RC cards in components not connected to any
	// port; they cannot affect the ports and are removed.
	DroppedElements []netlist.Element
	// DeckNodes, DeckR and DeckC count the input deck as the interning
	// pass saw it: distinct non-ground node names over every element,
	// and the elements whose names start with 'r' and 'c' — the lengths
	// of Deck.NodeNames and Deck.ElementsOfType('r'/'c').
	DeckNodes, DeckR, DeckC int
	// StampNs is the wall time of everything from the deck's element
	// list to the merged triplets: the node-interning pass (which also
	// classifies elements and counts the deck), port detection,
	// first-appearance ordering, connectivity pruning and the (parallel)
	// triplet stamping loop. AssembleNs covers the triplet-to-CSR builds
	// and the port/internal partition. Together they are the front end's
	// share of core.Stats stage accounting.
	StampNs    int64
	AssembleNs int64
}

// stampChunk is the number of RC elements a stamping worker processes
// per triplet bucket. Bucket boundaries depend only on the element
// count, never the worker count, and buckets are merged in index order,
// so the assembled triplet sequence — and therefore the built CSR, bit
// for bit — is identical at every GOMAXPROCS.
const stampChunk = 2048

// errAssembleFault marks an injected stamping-chunk failure (inject
// point stamp.assemble, pactcheck builds only).
var errAssembleFault = errors.New("stamp: injected assembly fault")

// Extract separates the RC network of a deck and stamps it into a
// partitioned System. Following RCFIT, a node becomes a port when it is
// connected to a resistor or capacitor and also to a device other than a
// resistor or capacitor; ground is the implicit common node. ExtraPorts
// lets the caller force nodes (e.g. observation points) to be ports;
// their names are normalized like the parser's node fields (trimmed,
// lowercased, "gnd" is ground).
//
// Node names are hashed once: a single pass over the deck interns every
// terminal into a dense int32 id (ground is 0, the rest in deck order),
// and port detection, ordering, pruning and stamping all index slices by
// id from there on.
func Extract(deck *netlist.Deck, extraPorts ...string) (*Extraction, error) {
	tStamp := time.Now()
	ex := &Extraction{}
	nElems := len(deck.Elements)
	// RC decks carry about two cards per node; the hint only pre-sizes.
	hint := nElems/2 + 1
	ids := make(map[string]int32, hint)
	ids[netlist.Ground] = 0
	names := append(make([]string, 0, hint), netlist.Ground) // id -> name
	// isPort[id]: a non-RC element touches the node, or the caller
	// forced it; among RC nodes these are the ports.
	isPort := append(make([]bool, 0, hint), false)
	intern := func(name string) int32 {
		id, ok := ids[name]
		if !ok {
			id = int32(len(names))
			ids[name] = id
			names = append(names, name)
			isPort = append(isPort, false)
		}
		return id
	}
	// rcEnds holds the two terminal ids of each RC element, parallel to
	// ex.RCElements.
	ex.RCElements = make([]netlist.Element, 0, nElems)
	rcEnds := make([]int32, 0, 2*nElems)
	for _, e := range deck.Elements {
		if name := e.Name(); name != "" {
			switch name[0] {
			case 'r':
				ex.DeckR++
			case 'c':
				ex.DeckC++
			}
		}
		switch el := e.(type) {
		case *netlist.Resistor:
			ex.RCElements = append(ex.RCElements, e)
			rcEnds = append(rcEnds, intern(el.N1), intern(el.N2))
		case *netlist.Capacitor:
			ex.RCElements = append(ex.RCElements, e)
			rcEnds = append(rcEnds, intern(el.N1), intern(el.N2))
		default:
			ex.OtherElements = append(ex.OtherElements, e)
			for _, n := range e.Nodes() {
				isPort[intern(n)] = true
			}
		}
	}
	ex.DeckNodes = len(names) - 1
	forcedNames := make([]string, len(extraPorts))
	for i, p := range extraPorts {
		forcedNames[i] = netlist.NormNode(p)
		if id, ok := ids[forcedNames[i]]; ok {
			isPort[id] = true
		}
	}
	// Node order: first appearance among RC elements; ports first.
	// index[id] is -1 for a node no RC element touches and -2 for one
	// seen but not yet numbered.
	index := make([]int32, len(names))
	for i := range index {
		index[i] = -1
	}
	var portIDs, internalIDs []int32
	for _, id := range rcEnds {
		if id == 0 || index[id] != -1 {
			continue
		}
		index[id] = -2
		if isPort[id] {
			portIDs = append(portIDs, id)
		} else {
			internalIDs = append(internalIDs, id)
		}
	}
	for _, p := range forcedNames {
		if id, ok := ids[p]; !ok || id == 0 || index[id] == -1 {
			return nil, fmt.Errorf("stamp: requested port %q does not touch the RC network", p)
		}
	}
	// Drop RC components not reachable from any port or ground. Union-find
	// over node ids, with ground and every port in one "anchored" group.
	parent := make([]int32, len(names))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, id := range portIDs {
		parent[find(id)] = find(0)
	}
	for k := 0; k < len(rcEnds); k += 2 {
		parent[find(rcEnds[k])] = find(rcEnds[k+1])
	}
	anchored := find(0)
	kept := 0
	for k, e := range ex.RCElements {
		a, b := rcEnds[2*k], rcEnds[2*k+1]
		if find(a) != anchored {
			ex.DroppedElements = append(ex.DroppedElements, e)
			continue
		}
		ex.RCElements[kept] = e
		rcEnds[2*kept], rcEnds[2*kept+1] = a, b
		kept++
	}
	ex.RCElements = ex.RCElements[:kept]
	rcEnds = rcEnds[:2*kept]
	keepInternal := internalIDs[:0]
	for _, id := range internalIDs {
		if find(id) == anchored {
			keepInternal = append(keepInternal, id)
		}
	}
	internalIDs = keepInternal

	m, n := len(portIDs), len(internalIDs)
	portNames := make([]string, m)
	for i, id := range portIDs {
		index[id] = int32(i)
		portNames[i] = names[id]
	}
	internalNames := make([]string, n)
	for i, id := range internalIDs {
		index[id] = int32(m + i)
		internalNames[i] = names[id]
	}
	// Stamp the element loop in parallel: fixed-size chunks of the
	// element slice fill chunk-indexed triplet buckets (iteration-owned —
	// no two chunks share a bucket), which are then merged in chunk
	// order. The merged triplet sequence is exactly what the serial loop
	// would have appended, so the built matrices are bit-identical at
	// every GOMAXPROCS. Element errors land in the owning bucket and the
	// lowest-indexed one wins, again matching the serial loop.
	type triBucket struct {
		gr, gc []int
		gv     []float64
		cr, cc []int
		cv     []float64
		err    error
	}
	nRC := len(ex.RCElements)
	buckets := make([]triBucket, (nRC+stampChunk-1)/stampChunk)
	par.ForChunks(nRC, stampChunk, func(_, lo, hi int) {
		ci := lo / stampChunk
		bk := &buckets[ci]
		if inject.Enabled && inject.ShouldFail(inject.StampAssemble, ci) {
			bk.err = resilience.NewStageError(resilience.StageExtract,
				fmt.Sprintf("stamping chunk %d failed", ci), nil, errAssembleFault)
			return
		}
		// Size each bucket from its own cards: four triplets per
		// ungrounded card, one per card grounded at one end.
		estG, estC := 0, 0
		for k := lo; k < hi; k++ {
			w := 4
			if a, b := rcEnds[2*k], rcEnds[2*k+1]; a == 0 || b == 0 {
				w = 1
			}
			if _, ok := ex.RCElements[k].(*netlist.Resistor); ok {
				estG += w
			} else {
				estC += w
			}
		}
		bk.gr = make([]int, 0, estG)
		bk.gc = make([]int, 0, estG)
		bk.gv = make([]float64, 0, estG)
		bk.cr = make([]int, 0, estC)
		bk.cc = make([]int, 0, estC)
		bk.cv = make([]float64, 0, estC)
		for k := lo; k < hi; k++ {
			e := ex.RCElements[k]
			var isG bool
			var val float64
			switch el := e.(type) {
			case *netlist.Resistor:
				if el.Value <= 0 {
					bk.err = fmt.Errorf("stamp: resistor %s has non-positive value %g (network must be passive)", el.Ident, el.Value)
					return
				}
				isG, val = true, 1/el.Value
			case *netlist.Capacitor:
				if el.Value < 0 {
					bk.err = fmt.Errorf("stamp: capacitor %s has negative value %g (network must be passive)", el.Ident, el.Value)
					return
				}
				isG, val = false, el.Value
			}
			r, c, v := bk.cr, bk.cc, bk.cv
			if isG {
				r, c, v = bk.gr, bk.gc, bk.gv
			}
			a, b := rcEnds[2*k], rcEnds[2*k+1]
			i, j := int(index[a]), int(index[b])
			switch {
			case a == 0 && b == 0:
				continue // both terminals grounded: no effect
			case a == 0:
				r, c, v = append(r, j), append(c, j), append(v, val)
			case b == 0:
				r, c, v = append(r, i), append(c, i), append(v, val)
			default:
				if i < 0 || j < 0 {
					bk.err = fmt.Errorf("stamp: internal error, unindexed node on %s", e.Name())
					return
				}
				if i == j {
					continue // element shorted on one node
				}
				// Same triplet order the serial Builder calls produced:
				// (i,i), (j,j), (i,j), (j,i).
				r = append(r, i, j, i, j)
				c = append(c, i, j, j, i)
				v = append(v, val, val, -val, -val)
			}
			if isG {
				bk.gr, bk.gc, bk.gv = r, c, v
			} else {
				bk.cr, bk.cc, bk.cv = r, c, v
			}
		}
	})
	sumG, sumC := 0, 0
	for bi := range buckets {
		if err := buckets[bi].err; err != nil {
			return nil, err
		}
		sumG += len(buckets[bi].gv)
		sumC += len(buckets[bi].cv)
	}
	gb := sparse.NewBuilder(m+n, m+n)
	cb := sparse.NewBuilder(m+n, m+n)
	gb.Reserve(sumG)
	cb.Reserve(sumC)
	for bi := range buckets {
		gb.Append(buckets[bi].gr, buckets[bi].gc, buckets[bi].gv)
		cb.Append(buckets[bi].cr, buckets[bi].cc, buckets[bi].cv)
	}
	ex.StampNs = time.Since(tStamp).Nanoseconds()

	tAssemble := time.Now()
	g, c := gb.Build(), cb.Build()
	if check.Enabled {
		check.SymmetricCSR("stamped conductance matrix", g, check.DefaultTol)
		check.SymmetricCSR("stamped susceptance matrix", c, check.DefaultTol)
	}
	ports := make([]int, m)
	for i := range ports {
		ports[i] = i
	}
	sys, err := core.Partition(g, c, ports)
	if err != nil {
		return nil, err
	}
	ex.AssembleNs = time.Since(tAssemble).Nanoseconds()
	ex.Sys = sys
	ex.PortNames = portNames
	ex.InternalNames = internalNames
	return ex, nil
}

// DefaultPrefix names the generated elements and internal nodes when
// RealizeOptions.Prefix is empty.
const DefaultPrefix = "pact"

// RealizeOptions configures unstamping.
type RealizeOptions struct {
	// Prefix names the generated elements and internal nodes (default
	// DefaultPrefix).
	Prefix string
	// SparsifyTol is the relative threshold of the RCFIT
	// sparsity-enhancement heuristic applied to the realized matrices
	// before unstamping (0 disables it).
	SparsifyTol float64
}

// realizeDropTol removes realized elements whose conductance or
// capacitance is below this fraction of the largest diagonal: numerical
// noise that would otherwise bloat the deck.
const realizeDropTol = 1e-13

// Realize unstamps a reduced model into SPICE R and C cards. Port i of
// the model connects to portNames[i]; each retained pole becomes one
// internal node named <prefix>_i<p>. Off-diagonal entries of the reduced
// matrices may be positive, in which case the corresponding branch
// element has a negative value — legal in SPICE, and harmless here
// because the matrices (hence the network) remain non-negative definite.
func Realize(model *core.ReducedModel, portNames []string, opts RealizeOptions) ([]netlist.Element, []string, error) {
	if len(portNames) != model.M {
		return nil, nil, fmt.Errorf("stamp: %d port names for %d ports", len(portNames), model.M)
	}
	if opts.Prefix == "" {
		opts.Prefix = DefaultPrefix
	}
	g, c := model.Matrices()
	if opts.SparsifyTol > 0 {
		core.Sparsify(g, opts.SparsifyTol)
		core.Sparsify(c, opts.SparsifyTol)
	}
	names := append([]string(nil), portNames...)
	internal := make([]string, model.K())
	for p := range internal {
		internal[p] = opts.Prefix + "_i" + strconv.Itoa(p+1)
	}
	names = append(names, internal...)
	// A counting pass sizes the element slabs and the ident buffer, so
	// the emitting pass allocates nothing per element.
	nr, nc := 0, 0
	realizeBranches(g, func(int, int, float64) { nr++ })
	realizeBranches(c, func(int, int, float64) { nc++ })
	rs := make([]netlist.Resistor, 0, nr)
	cs := make([]netlist.Capacitor, 0, nc)
	out := make([]netlist.Element, 0, nr+nc)
	// Every ident is a substring of one builder's buffer: the bytes
	// behind a substring are never rewritten, and the buffer is sized so
	// it is never reallocated.
	var ids strings.Builder
	ids.Grow((nr + nc) * (1 + len(opts.Prefix) + len(strconv.Itoa(nr+nc))))
	var num [20]byte
	ident := func(letter byte, k int) string {
		start := ids.Len()
		ids.WriteByte(letter)
		ids.WriteString(opts.Prefix)
		ids.Write(strconv.AppendInt(num[:0], int64(k), 10))
		return ids.String()[start:]
	}
	realizeBranches(g, func(i, j int, v float64) {
		n2, val := netlist.Ground, 1/v
		if j >= 0 {
			n2, val = names[j], -1/v
		}
		rs = append(rs, netlist.Resistor{Ident: ident('r', len(rs)+1), N1: names[i], N2: n2, Value: val})
		out = append(out, &rs[len(rs)-1])
	})
	realizeBranches(c, func(i, j int, v float64) {
		n2, val := netlist.Ground, v
		if j >= 0 {
			n2, val = names[j], -v
		}
		cs = append(cs, netlist.Capacitor{Ident: ident('c', len(cs)+1), N1: names[i], N2: n2, Value: val})
		out = append(out, &cs[len(cs)-1])
	})
	return out, internal, nil
}

// realizeBranches visits the elements one reduced matrix unstamps into,
// in card order: for each row i, the branch (i, j) of every
// off-diagonal entry v = mat(i, j), j > i, then the element to ground
// (j = -1) of the diagonal surplus v = Σⱼ mat(i, j). Entries at or below
// realizeDropTol times the largest diagonal are numerical noise and are
// skipped.
func realizeBranches(mat *dense.Mat, visit func(i, j int, v float64)) {
	n := mat.R
	scale := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(mat.At(i, i)); d > scale {
			scale = d
		}
	}
	thresh := realizeDropTol * scale
	for i := 0; i < n; i++ {
		// Branch elements from off-diagonals.
		for j := i + 1; j < n; j++ {
			v := mat.At(i, j)
			if math.Abs(v) <= thresh {
				continue
			}
			visit(i, j, v)
		}
		// Element to ground from the diagonal surplus.
		surplus := mat.At(i, i)
		for j := 0; j < n; j++ {
			if j != i {
				surplus += mat.At(i, j)
			}
		}
		if math.Abs(surplus) <= thresh {
			continue
		}
		visit(i, -1, surplus)
	}
}

// RealizeSubckt packages the realized reduced network as a .subckt
// definition plus an instance card connecting it to the original port
// nodes — the tidier form of rcfit output. The subcircuit's formal ports
// are p1..pm; internal nodes carry the usual prefix.
func RealizeSubckt(model *core.ReducedModel, portNames []string, opts RealizeOptions) (*netlist.Subckt, *netlist.XInstance, error) {
	if opts.Prefix == "" {
		opts.Prefix = DefaultPrefix
	}
	formal := make([]string, model.M)
	for i := range formal {
		formal[i] = fmt.Sprintf("p%d", i+1)
	}
	elems, _, err := Realize(model, formal, opts)
	if err != nil {
		return nil, nil, err
	}
	sub := &netlist.Subckt{
		Ident:    opts.Prefix + "net",
		Ports:    formal,
		Elements: elems,
	}
	inst := &netlist.XInstance{
		Ident:     "x" + opts.Prefix + "1",
		NodeList:  append([]string(nil), portNames...),
		SubcktRef: sub.Ident,
	}
	return sub, inst, nil
}
