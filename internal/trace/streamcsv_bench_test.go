package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkCSVSource times the streaming decoder on generated drastic CSVs.
// On a 2k-server, 12 h file (144 intervals): index is NewCSVSource alone,
// decode drains every column of a source opened over the bytes in memory,
// and decode-file opens the file on disk with OpenCSVFile and drains it, so
// it counts the decoder's reads. decode-file-long does the same on a
// 300-server, 30-day file (8640 intervals), whose ~147 KB rows are longer
// than the read stripe. Between those two sit rows a few stripes' worth of
// visits long: decode-file-import is a 1000-server, 8-day file at 5 min
// (2304 intervals) whose values are whole percents scaled by 0.01, as an
// Alibaba machine_usage import writes them (~5-byte fields, ~11 KB rows),
// and decode-file-mid a 300-server, 7-day drastic file (2016 intervals,
// ~37 KB rows). MB/s counts file bytes and values/s the utilizations
// delivered.
func BenchmarkCSVSource(b *testing.B) {
	short := benchCSV(b, 2000, 12*time.Hour)
	open := func(b *testing.B) *CSVSource {
		src, err := NewCSVSource(bytes.NewReader(short.data), int64(len(short.data)))
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(b)
		}
		short.report(b, 0)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		col := make([]float64, short.servers)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := open(b)
			b.StartTimer()
			drainBench(b, src, col)
		}
		short.report(b, short.values)
	})
	b.Run("decode-file", func(b *testing.B) { benchDecodeFile(b, short) })
	b.Run("decode-file-import", func(b *testing.B) { benchDecodeFile(b, benchCSV(b, 1000, 8*24*time.Hour, wholePercent)) })
	b.Run("decode-file-mid", func(b *testing.B) { benchDecodeFile(b, benchCSV(b, 300, 7*24*time.Hour)) })
	b.Run("decode-file-long", func(b *testing.B) { benchDecodeFile(b, benchCSV(b, 300, 30*24*time.Hour)) })
}

// wholePercent rounds u to a whole percent the way the Alibaba import
// scales cpu_util_percent.
func wholePercent(u float64) float64 { return math.Round(u*100) * AlibabaOptions().UtilScale }

// benchTrace is one generated CSV of a benchmark shape.
type benchTrace struct {
	data            []byte
	servers, values int
}

// benchCSV writes a generated drastic trace of the given size as CSV, with
// every utilization passed through each of maps first.
func benchCSV(b *testing.B, servers int, horizon time.Duration, maps ...func(float64) float64) benchTrace {
	cfg := DrasticConfig(servers)
	cfg.Horizon = horizon
	tr, err := Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range tr.U {
		for t, u := range row {
			for _, f := range maps {
				u = f(u)
			}
			row[t] = u
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	return benchTrace{data: buf.Bytes(), servers: tr.Servers(), values: tr.Servers() * tr.Intervals()}
}

// report sets the benchmark's MB/s, and its values/s when values > 0.
func (t benchTrace) report(b *testing.B, values int) {
	s := b.Elapsed().Seconds()
	b.ReportMetric(float64(len(t.data))*float64(b.N)/s/1e6, "MB/s")
	if values > 0 {
		b.ReportMetric(float64(values)*float64(b.N)/s, "values/s")
	}
}

// benchDecodeFile writes t to a file and times opening and draining it.
func benchDecodeFile(b *testing.B, t benchTrace) {
	path := filepath.Join(b.TempDir(), "trace.csv")
	if err := os.WriteFile(path, t.data, 0o644); err != nil {
		b.Fatal(err)
	}
	col := make([]float64, t.servers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := OpenCSVFile(path)
		if err != nil {
			b.Fatal(err)
		}
		drainBench(b, src, col)
		src.Close()
	}
	t.report(b, t.values)
}

// drainBench pulls every column of src into col.
func drainBench(b *testing.B, src *CSVSource, col []float64) {
	for {
		if _, err := src.NextColumn(col); err == io.EOF {
			return
		} else if err != nil {
			b.Fatal(err)
		}
	}
}
