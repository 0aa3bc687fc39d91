package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bench-file bytes through parse and arbitrary
// measurement tails through parseMeasurement. Neither may panic. Every
// benchmark that parse records carries an ns/op value; a set's table and
// self-diff render, and a set diffed against itself never regresses. A tail
// parseMeasurement accepts re-renders with exact float formatting to a tail
// that parses to the same iteration count and values.
//
// The seed corpus is a trimmed `make bench` snapshot (its h2p_bench_env
// header and the test2json events of one benchmark), the same text as plain
// `go test -bench` output, the measurement tail of its benchmark line, and
// lines that carry no ns/op and so are not measurements.
func FuzzParse(f *testing.F) {
	snap, err := os.ReadFile("testdata/bench_decision.json")
	if err != nil {
		f.Fatal(err)
	}
	const tail = "52948932\t        21.35 ns/op\t       0 B/op\t       0 allocs/op"
	f.Add(snap, tail)
	f.Add([]byte(plainBench), "1\t2000000000 ns/op\t 54000000 servers/s")
	f.Add([]byte(envHeader+jsonBench), "100000 12000 ns/op 48 B/op")
	f.Add([]byte("BenchmarkX\n7 NaN ns/op\n"), "1 +Inf ns/op -0 MB/s")
	f.Add([]byte("BenchmarkY-2 3 48 B/op\nBenchmarkZ\n"), "3 48 B/op")
	f.Fuzz(func(t *testing.T, data []byte, tail string) {
		if s, err := parse(bytes.NewReader(data)); err == nil {
			if len(s.order) != len(s.results) {
				t.Fatalf("%d names in order, %d results", len(s.order), len(s.results))
			}
			for _, name := range s.order {
				if _, ok := s.results[name].Values["ns/op"]; !ok {
					t.Fatalf("%s recorded without ns/op: %+v", name, s.results[name])
				}
			}
			writeTable(io.Discard, s)
			writeDiff(io.Discard, s, s)
			if r := regressions(s, s, 0); len(r) != 0 {
				t.Fatalf("a set diffed against itself regressed: %v", r)
			}
		}

		res, ok := parseMeasurement(tail)
		if !ok {
			return
		}
		if _, has := res.Values["ns/op"]; !has {
			t.Fatalf("accepted %q without ns/op", tail)
		}
		var b strings.Builder
		b.WriteString(strconv.FormatInt(res.Iters, 10))
		for _, unit := range res.units() {
			b.WriteString(" " + strconv.FormatFloat(res.Values[unit], 'g', -1, 64) + " " + unit)
		}
		again, ok := parseMeasurement(b.String())
		if !ok {
			t.Fatalf("re-rendered %q (from %q) does not parse", b.String(), tail)
		}
		if again.Iters != res.Iters || len(again.Values) != len(res.Values) {
			t.Fatalf("re-parse of %q: %+v, want %+v", b.String(), again, res)
		}
		for unit, v := range res.Values {
			if math.Float64bits(again.Values[unit]) != math.Float64bits(v) {
				t.Fatalf("re-parse of %q: %s = %v, want %v", b.String(), unit, again.Values[unit], v)
			}
		}
	})
}
