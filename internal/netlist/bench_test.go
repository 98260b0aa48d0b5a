package netlist

import (
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The writer benchmarks time the output half of the reduce pipeline at
// the shape of the 256-port wide-band deck's reduced output: 66k
// realized R and C cards, about half of whose values fall outside the
// engineering-suffix range [1e-15, 1e15):
//
//	go test ./internal/netlist -run '^$' -bench 'FormatValue|Deck'
const benchCards = 66_374

// realizedValues returns n values of realized-element magnitudes: half
// log-uniform in [1e-15, 1e6), the range of ordinary R and C values, and
// half in the weak-coupling tails [1e-21, 1e-15) and [1e15, 1e21), both
// signs throughout.
func realizedValues(n int) []float64 {
	rng := rand.New(rand.NewSource(7002))
	vals := make([]float64, n)
	for i := range vals {
		var exp float64
		switch i % 4 {
		case 0, 1:
			exp = -15 + 21*rng.Float64()
		case 2:
			exp = -21 + 6*rng.Float64()
		default:
			exp = 15 + 6*rng.Float64()
		}
		vals[i] = math.Pow(10, exp)
		if rng.Intn(2) == 0 {
			vals[i] = -vals[i]
		}
	}
	return vals
}

func BenchmarkFormatValue(b *testing.B) {
	vals := realizedValues(4096)
	dst := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendValue(dst[:0], vals[i%len(vals)])
	}
}

// realizedDeck is a reduced deck of the 256-port wide-band shape: n
// alternating R and C cards over 256 port and 48 internal nodes, valued
// by realizedValues.
func realizedDeck(n int) *Deck {
	vals := realizedValues(n)
	names := make([]string, 256+48)
	for i := range names {
		if i < 256 {
			names[i] = "p" + strconv.Itoa(i+1)
		} else {
			names[i] = "pact_i" + strconv.Itoa(i-255)
		}
	}
	d := &Deck{Title: "wideband256 (pact reduced)"}
	for k, v := range vals {
		n1, n2 := names[k%len(names)], names[(k*7+3)%len(names)]
		id := strconv.Itoa(k + 1)
		if k%2 == 0 {
			d.Elements = append(d.Elements, &Resistor{Ident: "rpact" + id, N1: n1, N2: n2, Value: v})
		} else {
			d.Elements = append(d.Elements, &Capacitor{Ident: "cpact" + id, N1: n1, N2: Ground, Value: v})
		}
	}
	return d
}

func BenchmarkDeckWrite(b *testing.B) {
	d := realizedDeck(benchCards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeckString(b *testing.B) {
	d := realizedDeck(benchCards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.String() == "" {
			b.Fatal("empty rendering")
		}
	}
}
