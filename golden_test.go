package pact

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/netgen"
	"repro/internal/stamp"
)

// The golden output corpus: SHA-256 digests of the reduced decks
// ReduceDeck writes for small netgen decks crossed with option vectors,
// plus one digest per deck of the exact admittance System.Y that
// verification compares reduced models against.
// A refactor that claims byte-identical output proves it by leaving
// every digest unchanged; a change that moves bits on purpose re-runs
//
//	go test -run TestGoldenCorpus -update .
//
// and names every moved digest, with the reason, in its change notes.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current reduction output")

const goldenFile = "testdata/golden.sha256"

// goldenDeck is one corpus deck and the fmax that keeps a handful of its
// poles, so truncation, pruning and the multi-point selector all act.
type goldenDeck struct {
	name  string
	fmax  float64
	build func() (*Deck, []string, error)
}

// goldenDecks covers both pole-analysis back ends: the mesh (71 internal
// nodes) takes the dense eigenpath, the others (149 to 560 internal
// nodes) run Lanczos, and the power grid's 560 internal nodes engage the
// supernodal factorizer.
var goldenDecks = []goldenDeck{
	{"ladder", 1e11, func() (*Deck, []string, error) { return netgen.Ladder(150, 250, 1.35e-12), nil, nil }},
	{"powergrid", 1e11, func() (*Deck, []string, error) {
		d, _, err := netgen.PowerGrid(netgen.PowerGridOpts{NX: 24, NY: 24, RSeg: 0.8, CNode: 60e-15, NPorts: 16})
		return d, nil, err
	}},
	{"mesh", 1e10, func() (*Deck, []string, error) {
		// Mesh ports carry no devices, so they are named as extra ports.
		return netgen.Mesh3D(netgen.MeshOpts{NX: 5, NY: 5, NZ: 3, REdge: 630, CSurf: 30e-15, NPorts: 4})
	}},
	{"clocktree", 1e11, func() (*Deck, []string, error) {
		d, _, err := netgen.ClockTree(netgen.ClockTreeOpts{Levels: 7, RSeg: 2.5, CSeg: 4e-15, NLeafPorts: 8})
		return d, nil, err
	}},
	{"wideband64", 3e9, func() (*Deck, []string, error) {
		d, _, err := netgen.WideBand(netgen.WideBandPreset(64))
		return d, nil, err
	}},
}

// goldenVectors are the option vectors every deck is reduced with; each
// sets FMax from its deck.
var goldenVectors = []struct {
	name string
	set  func(o *Options)
}{
	{"single-point", func(o *Options) {}},
	{"maxpoles", func(o *Options) { o.MaxPoles = 3 }},
	{"shifts", func(o *Options) { o.Shifts = []float64{0, o.FMax} }},
	{"shifts-maxpoles", func(o *Options) { o.Shifts, o.MaxPoles = []float64{0, o.FMax}, 2 }},
	{"prune", func(o *Options) { o.ResiduePruneTol = 0.01 }},
	{"shifts-clusters", func(o *Options) { o.Shifts, o.PortClusters = []float64{0, o.FMax}, 2 }},
	{"sparsify", func(o *Options) { o.SparsifyTol = 1e-3 }},
	{"subckt", func(o *Options) { o.AsSubckt = true }},
	{"twopass", func(o *Options) { o.TwoPass = true }},
	{"lanczos-full", func(o *Options) { o.LanczosMode = FullReorth }},
	{"lanczos-none", func(o *Options) { o.LanczosMode = NoReorth }},
}

// goldenYFreqs are the frequencies, as fractions of a deck's fmax, at
// which the "deck/y" entry evaluates the unreduced System.Y.
var goldenYFreqs = []float64{0.01, 0.1, 1}

// yDigest returns the hex SHA-256 of the Float64bits of every entry
// (real, then imaginary part, row-major) of each matrix in ys.
func yDigest(ys []*dense.CMat) string {
	h := sha256.New()
	var buf [8]byte
	for _, y := range ys {
		for i := 0; i < y.R; i++ {
			for j := 0; j < y.C; j++ {
				v := y.At(i, j)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(real(v)))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(imag(v)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenYEntry evaluates the unreduced admittance of one deck at the
// goldenYFreqs points with System.Y and returns its digest. YSweep must
// return the same bits, so both evaluation paths are pinned.
func goldenYEntry(t *testing.T, deck *Deck, ports []string, fmax float64) string {
	t.Helper()
	ex, err := stamp.Extract(deck, ports...)
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, len(goldenYFreqs))
	ys := make([]*dense.CMat, len(freqs))
	for k, frac := range goldenYFreqs {
		freqs[k] = frac * fmax
		if ys[k], err = ex.Sys.Y(complex(0, 2*math.Pi*freqs[k])); err != nil {
			t.Fatal(err)
		}
	}
	sweep, err := ex.Sys.YSweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	digest := yDigest(ys)
	if sd := yDigest(sweep); sd != digest {
		t.Errorf("YSweep digest %s differs from Y's %s", sd, digest)
	}
	return digest
}

// goldenDigests reduces every deck with every vector and returns the
// hex SHA-256 of each reduced deck, keyed "deck/vector", plus each
// deck's admittance digest, keyed "deck/y". The entries run as parallel
// subtests sharing each (read-only) deck.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("reduce", func(t *testing.T) {
		for _, gd := range goldenDecks {
			deck, ports, err := gd.build()
			if err != nil {
				t.Fatalf("%s: %v", gd.name, err)
			}
			t.Run(gd.name+"/y", func(t *testing.T) {
				t.Parallel()
				digest := goldenYEntry(t, deck, ports, gd.fmax)
				mu.Lock()
				got[gd.name+"/y"] = digest
				mu.Unlock()
			})
			for _, v := range goldenVectors {
				name := gd.name + "/" + v.name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					o := Options{FMax: gd.fmax, ExtraPorts: ports}
					v.set(&o)
					red, err := ReduceDeck(deck, o)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256([]byte(red.Deck.String()))
					mu.Lock()
					got[name] = hex.EncodeToString(sum[:])
					mu.Unlock()
				})
			}
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return got
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenCorpus -update . to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# SHA-256 of pact.ReduceDeck output per deck/option vector, and of System.Y bits per deck/y (golden_test.go); amd64.\n")
	for _, name := range sortedKeys(got) {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCorpus pins the reduced-deck bytes of every corpus entry.
// The digests hold on amd64 only: elsewhere the compiler may fuse
// multiply-adds, which moves the last bits of the arithmetic.
func TestGoldenCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := goldenDigests(t)
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	var diffs []string
	for _, name := range sortedKeys(got) {
		switch w, ok := want[name]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("  %s: new entry, digest %s", name, got[name]))
		case w != got[name]:
			diffs = append(diffs, fmt.Sprintf("  %s: digest %s, golden %s", name, got[name], w))
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("  %s: golden entry no longer produced", name))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%d of %d golden entries changed (rerun with -update only if the change is intended):\n%s",
			len(diffs), len(want), strings.Join(diffs, "\n"))
	}
}
