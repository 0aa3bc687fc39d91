package trace

import (
	"encoding/binary"
	"strconv"
)

// parseFloat decodes one CSV field exactly as strconv.ParseFloat(string(b),
// 64) does: same bits, same errors. The canonical writer only emits plain
// decimals, [-]digits[.digits][(e|E)[±]digits], so one pass scans that
// shape, eight digits per step, and converts it with strconv's own two
// steps: the exact float64 path, then Eisel–Lemire. Whatever it does not
// fully accept goes to strconv.ParseFloat, which also produces every error:
// more than 19 significant digits, an exponent outside the power table, a
// leading '+', hex, inf, nan, underscores, and the roundings Eisel–Lemire
// cannot decide.
func parseFloat(b []byte) (float64, error) {
	if f, ok := parseDecimal(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseDecimal is parseFloat's fast path; ok is false when b must go to
// strconv.
func parseDecimal(b []byte) (f float64, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && b[0] == '-' {
		i, neg = 1, true
	}
	// Leading zeros carry no digit, so the 19-digit budget covers
	// significant digits only, as strconv's does.
	first := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	man, nd, i := scanDigits(b, i, 0, 0)
	digits := i > first
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		man, nd, i = scanDigits(b, i, man, nd)
		exp10 = frac - i
		digits = digits || i > frac
	}
	if !digits || nd > maxMantDigits {
		return 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for i < len(b) && i-start < 4 && b[i]-'0' < 10 {
			e = e*10 + int(b[i]-'0')
			i++
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if i != len(b) {
		return 0, false
	}
	// Exact: man and 10^|exp10| are both float64 integers, so one IEEE
	// multiply or divide rounds correctly.
	if man>>53 == 0 && exp10 >= -22 && exp10 <= 22 {
		f = float64(man)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / exactPow10[-exp10], true
		}
		return f * exactPow10[exp10], true
	}
	return eiselLemire64(man, exp10, neg)
}

// maxMantDigits is how many significant decimal digits fit a uint64
// mantissa without overflow (10^19 − 1 < 2^64).
const maxMantDigits = 19

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// scanDigits appends the decimal digits of b from i on to man, eight per
// step while eight remain, and returns man, the digit count nd and where
// the digits end. Past maxMantDigits digits man wraps, but the caller then
// falls back without using it.
func scanDigits(b []byte, i int, man uint64, nd int) (uint64, int, int) {
	for len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightDigitsValue(v)
		nd += 8
		i += 8
	}
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		man = man*10 + uint64(b[i]-'0')
		nd++
	}
	return man, nd, i
}

// eightDigits reports whether all eight bytes of the little-endian word v
// are ASCII digits: each byte's high nibble is 3, and still 3 after adding
// 6 (a byte above '9' carries into it).
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightDigitsValue converts eight ASCII digits, the first in v's low byte,
// with three multiplies: adjacent digits fold into pairs (d0·10 + d1), then
// the four pairs into two 4-digit halves and those into the result.
func eightDigitsValue(v uint64) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 100 + 1000000<<32
		mul2 = 1 + 10000<<32
	)
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32
}
