package trace

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseFloatEdges are fields at the edges of the fast path's grammar and of
// its fallback: empty and sign-only fields, missing digits, signs strconv
// accepts but the fast path leaves to it, specials, hex and underscores,
// mantissas at and past 19 significant digits, leading zeros, exponents at
// the power table's ends and past what an int holds, and exact halfway
// roundings.
var parseFloatEdges = []string{
	"", ".", "-", "-0", "1.", ".5", "-.5", "1e", "1e+", "1e-", "+1", "+.5",
	"inf", "-Inf", "+Inf", "infinity", "NaN", "nan", "0x1p-2", "0X1.8P+1", "1_0", "0_1",
	"1234567890123456789", "12345678901234567890", "123456789012345678901",
	"0.1234567890123456789", "0.12345678901234567890", "0.123456789012345678901",
	"9999999999999999999", "99999999999999999999", "18446744073709551615",
	"9.999999999999999e-05", "0.00012345678901234567", "0.000123456789012345678",
	"0", "00", "0.0", "0.", "-0.0", "0e0", "-0e-400", "0e400", "000000000000000000000000000001",
	"0.000000000000000000000000000000000000000000000001",
	"1", "1.0", "0.5", "0.1", "1e0", "1E0", "1e0001", "1e00001", "1e+05", "1E-5",
	"1e22", "1e23", "1e-22", "1e-23", "1e-39", "1e-40", "1e-400", "1e400", "1e-324",
	"4.9e-324", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"4503599627370496.5", "4503599627370497.5", "0.30000000000000004",
	"1234567/", "12345678:", "1234567a8", "12345678.123456789", "1 ", " 1", "1,0",
	"1.2.3", "1e5e5", "--1", "-+1", "1e+-5", "12345678901234567e-39", "1.5e-38",
	"1e9999", "1e-9999", "1e99999", "1e18446744073709551616", "1e-18446744073709551616",
}

// checkParseFloat fails t unless parseFloat(s) matches strconv.ParseFloat on
// the value's bits and on the error, its text included.
func checkParseFloat(t testing.TB, s string) {
	t.Helper()
	got, gerr := parseFloat([]byte(s))
	want, werr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) || (gerr == nil) != (werr == nil) ||
		gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv %v (%#x), %v",
			s, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
	}
}

// TestParseFloatMatchesStrconv compares the CSV decoder's float parser with
// strconv.ParseFloat on the edge list and on a seeded sweep of float64s
// formatted as the canonical writer does ('g', -1) and as 'e' and 'f' at
// random precisions: uniform bit patterns, [0, 1), and [0, 1)·10^k. It also
// requires the fast path itself to take the canonical decimals, so a parser
// that always fell back could not pass.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range parseFloatEdges {
		checkParseFloat(t, s)
	}
	n := 100000
	if testing.Short() {
		n = 10000
	}
	rng := rand.New(rand.NewSource(25))
	canonical, fast := 0, 0
	for i := 0; i < n; i++ {
		for _, v := range []float64{
			math.Float64frombits(rng.Uint64()),
			rng.Float64(),
			rng.Float64() * math.Pow10(rng.Intn(61)-30),
		} {
			g := strconv.FormatFloat(v, 'g', -1, 64)
			checkParseFloat(t, g)
			checkParseFloat(t, "-"+g)
			checkParseFloat(t, strconv.FormatFloat(v, 'e', rng.Intn(22), 64))
			checkParseFloat(t, strconv.FormatFloat(v, 'f', rng.Intn(26), 64))
			if v >= 1e-23 && v <= 1 {
				canonical++
				if _, ok := parseDecimal([]byte(g)); ok {
					fast++
				}
			}
		}
	}
	// Eisel–Lemire leaves only a vanishing share of roundings undecided.
	if fast < canonical-canonical/1000 {
		t.Fatalf("fast path took %d of %d canonical decimals in [1e-23, 1], want all but ≤ 0.1 %%", fast, canonical)
	}
}

// TestEightDigitsSWAR checks the eight-byte digit test and conversion
// against a byte loop: every byte value at every position of a digit word.
func TestEightDigitsSWAR(t *testing.T) {
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			w := []byte("31415926")
			w[pos] = byte(c)
			v := uint64(0)
			for k := 7; k >= 0; k-- {
				v = v<<8 | uint64(w[k])
			}
			want, err := strconv.ParseUint(string(w), 10, 64)
			if got := eightDigits(v); got != (err == nil) {
				t.Fatalf("eightDigits(%q) = %v", w, got)
			}
			if err == nil && eightDigitsValue(v) != want {
				t.Fatalf("eightDigitsValue(%q) = %d, want %d", w, eightDigitsValue(v), want)
			}
		}
	}
	for _, w := range []string{"00000000", "99999999", "10000000", "00000001", "12345678", "87654321"} {
		v := uint64(0)
		for k := 7; k >= 0; k-- {
			v = v<<8 | uint64(w[k])
		}
		want, _ := strconv.ParseUint(w, 10, 64)
		if !eightDigits(v) || eightDigitsValue(v) != want {
			t.Fatalf("%q: eightDigits %v, value %d, want %d", w, eightDigits(v), eightDigitsValue(v), want)
		}
	}
}

// TestPow10RowsExact recomputes every row of the Eisel–Lemire table: row q
// is 10^q scaled by 2^(127 − ⌊217706·q/65536⌋) and truncated to an integer,
// which must have exactly 128 bits.
func TestPow10RowsExact(t *testing.T) {
	if len(pow10Mantissas) != pow10MaxExp10-pow10MinExp10+1 {
		t.Fatalf("%d rows for 1e%d … 1e%d", len(pow10Mantissas), pow10MinExp10, pow10MaxExp10)
	}
	ten := big.NewInt(10)
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		shift := uint(127 - 217706*q>>16)
		want := new(big.Int).Lsh(big.NewInt(1), shift)
		if q < 0 {
			want.Quo(want, new(big.Int).Exp(ten, big.NewInt(int64(-q)), nil))
		} else {
			want.Mul(want, new(big.Int).Exp(ten, big.NewInt(int64(q)), nil))
		}
		row := pow10Mantissas[q-pow10MinExp10]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		got.Or(got, new(big.Int).SetUint64(row[0]))
		if want.BitLen() != 128 || got.Cmp(want) != 0 {
			t.Fatalf("1e%d: row %#x, want %#x (%d bits)", q, got, want, want.BitLen())
		}
	}
}

// FuzzParseFloat is parseFloat's differential fuzzer against
// strconv.ParseFloat: same bits, same error text. Inputs are cut at
// csvMaxFieldLen bytes, the longest field CSVSource hands the parser; longer
// ones only grow the corpus and stall the fuzz engine's minimizer.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseFloatEdges {
		f.Add(s)
	}
	f.Add(strings.Repeat("9", 40))
	f.Fuzz(func(t *testing.T, s string) {
		checkParseFloat(t, s[:min(len(s), csvMaxFieldLen)])
	})
}
