package netlist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseValue parses a SPICE numeric token: a float with an optional
// engineering suffix (f p n u mil m k meg g t, case-insensitive); any
// trailing letters after the suffix are ignored, so "10kohm" parses as
// 10e3 and "5pF" as 5e-12.
func ParseValue(tok string) (float64, error) {
	tok = strings.ToLower(strings.TrimSpace(tok))
	if tok == "" {
		return 0, fmt.Errorf("netlist: empty numeric token")
	}
	// Find the longest numeric prefix.
	end := 0
	seenDigit := false
	for end < len(tok) {
		ch := tok[end]
		switch {
		case ch >= '0' && ch <= '9':
			seenDigit = true
			end++
		case ch == '+' || ch == '-':
			if end == 0 {
				end++
			} else if tok[end-1] == 'e' {
				end++
			} else {
				goto done
			}
		case ch == '.':
			end++
		case ch == 'e' && seenDigit && end+1 < len(tok) &&
			(tok[end+1] == '+' || tok[end+1] == '-' || (tok[end+1] >= '0' && tok[end+1] <= '9')):
			end++
		default:
			goto done
		}
	}
done:
	if end == 0 || !seenDigit {
		return 0, fmt.Errorf("netlist: %q is not a number", tok)
	}
	mant, err := strconv.ParseFloat(tok[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("netlist: bad number %q: %v", tok, err)
	}
	suffix := tok[end:]
	mult := 1.0
	switch {
	case suffix == "":
	case strings.HasPrefix(suffix, "meg"):
		mult = 1e6
	case strings.HasPrefix(suffix, "mil"):
		mult = 25.4e-6
	case suffix[0] == 'f':
		mult = 1e-15
	case suffix[0] == 'p':
		mult = 1e-12
	case suffix[0] == 'n':
		mult = 1e-9
	case suffix[0] == 'u':
		mult = 1e-6
	case suffix[0] == 'm':
		mult = 1e-3
	case suffix[0] == 'k':
		mult = 1e3
	case suffix[0] == 'g':
		mult = 1e9
	case suffix[0] == 't':
		mult = 1e12
	default:
		// Unit words like "ohm", "v", "hz" carry no scale.
	}
	return mant * mult, nil
}

// engUnits are FormatValue's suffixes, largest first. Each mult is the
// literal ParseValue scales its suffix by, so a mantissa token m followed
// by the suffix re-parses to exactly ParseFloat(m)·mult.
var engUnits = [...]struct {
	mult float64
	suf  string
}{
	{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
	{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
}

// FormatValue renders a value in compact SPICE engineering notation,
// picking the suffix that leaves a mantissa in [1, 1000) where possible.
//
// The rendered token always re-parses to exactly v (bit-identical): a
// waveform can hold a step edge at TD, and a time constant off by one
// ulp flips the value on either side of it, so "close" is not good
// enough for a deck that must simulate identically after a write/parse
// cycle. The pretty ten-digit engineering form is used whenever it is
// exact; otherwise the shortest exact mantissa keeps the suffix, and if
// the suffix multiply itself cannot reproduce v, the value falls back
// to plain shortest-exact scientific notation.
func FormatValue(v float64) string {
	var buf [32]byte
	return string(AppendValue(buf[:0], v))
}

// maxValueLen bounds the length of AppendValue's output for any
// float64. The longest token is the shortest exact 'g' form of a
// negative value in exponent notation: sign, 17 significant digits,
// the point and "e-308", 24 bytes. The engineering forms are shorter
// (a mantissa below 1000 with at most 17 digits, sign and point, plus
// at most the three-letter "meg"), and so are ±Inf and NaN.
const maxValueLen = 24

// AppendValue appends FormatValue(v) to dst and returns the extended
// slice. It is the writer's form: it decides every round trip from the
// mantissa's parsed value times the suffix multiplier, which is what
// ParseValue computes for the rendered token, so it never re-parses a
// whole token and allocates nothing beyond growing dst.
func AppendValue(dst []byte, v float64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Appendf(dst, "%g", v)
	}
	abs := math.Abs(v)
	n := len(dst)
	for _, u := range engUnits {
		if abs >= u.mult && abs < u.mult*1000 {
			x := v / u.mult
			var y float64
			if dst, y = appendTrimmed(dst, x); reparsesTo(y*u.mult, v) {
				return append(dst, u.suf...)
			}
			// The shortest form of x parses back to x itself.
			if dst = strconv.AppendFloat(dst[:n], x, 'g', -1, 64); reparsesTo(x*u.mult, v) {
				return append(dst, u.suf...)
			}
			return strconv.AppendFloat(dst[:n], v, 'g', -1, 64)
		}
	}
	dst, y := appendTrimmed(dst, v)
	if reparsesTo(y, v) {
		return dst
	}
	return strconv.AppendFloat(dst[:n], v, 'g', -1, 64)
}

// reparsesTo reports whether a rendered token's parsed value got is
// exactly v.
func reparsesTo(got, v float64) bool {
	//lint:ignore floatcmp bit-exact round trip is the contract here: one ulp of drift moves a waveform edge across its sample point
	return got == v
}

// appendTrimmed appends x with ten significant digits — enough for every
// humanly-entered value to keep its natural spelling ("2.5", "13.5") —
// and returns the value the appended digits parse to. Rounding to ten
// digits can carry values at the very edge of the float64 range past it
// (MaxFloat64 becomes 1.797693135e+308, which overflows on re-parse);
// there it appends the shortest exact form, which parses to x.
func appendTrimmed(dst []byte, x float64) ([]byte, float64) {
	n := len(dst)
	dst = strconv.AppendFloat(dst, x, 'g', 10, 64)
	if y, err := strconv.ParseFloat(string(dst[n:]), 64); err == nil && !math.IsInf(y, 0) {
		return dst, y
	}
	return strconv.AppendFloat(dst[:n], x, 'g', -1, 64), x
}
