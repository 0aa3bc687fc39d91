// Command h2ptrace generates and inspects workload traces.
//
// Usage:
//
//	h2ptrace -gen drastic -servers 1000 -seed 42 -out drastic.csv
//	h2ptrace -inspect drastic.csv
//	h2ptrace -convert machine_usage.csv -out usage.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/h2p-sim/h2p/internal/trace"
)

func main() {
	gen := flag.String("gen", "", "generate a trace: drastic, irregular or common")
	servers := flag.Int("servers", 1000, "cluster size for generation")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "", "output CSV path (stdout if empty)")
	inspect := flag.String("inspect", "", "print statistics of a CSV trace")
	imp := flag.String("import", "", "convert a long-format usage file (Alibaba machine_usage layout) to the h2p CSV format")
	convert := flag.String("convert", "", "like -import, but streaming: never materializes the matrix, so it handles files larger than memory")
	flag.Parse()

	if err := run(os.Stdout, *gen, *servers, *seed, *out, *inspect, *imp, *convert); err != nil {
		fmt.Fprintln(os.Stderr, "h2ptrace:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, gen string, servers int, seed int64, out, inspect, imp, convert string) error {
	switch {
	case convert != "":
		src, err := trace.OpenLongFormatFile(convert, trace.AlibabaOptions())
		if err != nil {
			return err
		}
		defer src.Close()
		var w io.Writer = stdout
		if out != "" {
			of, err := os.Create(out)
			if err != nil {
				return err
			}
			defer of.Close()
			w = of
		}
		return trace.ConvertToCSV(src, w, "")
	case imp != "":
		f, err := os.Open(imp)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.ReadLongFormat(f, trace.AlibabaOptions())
		if err != nil {
			return err
		}
		var w io.Writer = stdout
		if out != "" {
			of, err := os.Create(out)
			if err != nil {
				return err
			}
			defer of.Close()
			w = of
		}
		return tr.WriteCSV(w)
	case gen != "":
		var cfg trace.GeneratorConfig
		switch trace.Class(gen) {
		case trace.Drastic:
			cfg = trace.DrasticConfig(servers)
		case trace.Irregular:
			cfg = trace.IrregularConfig(servers)
		case trace.Common:
			cfg = trace.CommonConfig(servers)
		default:
			return fmt.Errorf("unknown class %q (drastic, irregular, common)", gen)
		}
		tr, err := trace.Generate(cfg, seed)
		if err != nil {
			return err
		}
		var w io.Writer = stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return tr.WriteCSV(w)
	case inspect != "":
		src, err := trace.OpenCSVFile(inspect)
		if err != nil {
			return err
		}
		defer src.Close()
		tr, err := trace.Materialize(src)
		if err != nil {
			return err
		}
		s, err := tr.Describe()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "name: %s\nclass: %s\nservers: %d\nintervals: %d x %v (%v total)\n",
			tr.Name, tr.Class, tr.Servers(), tr.Intervals(), tr.Interval, tr.Duration())
		fmt.Fprintf(stdout, "utilization: mean %.3f std %.3f min %.3f p50 %.3f p95 %.3f p99 %.3f max %.3f\n",
			s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
		var maxDisp float64
		for i := 0; i < tr.Intervals(); i++ {
			d, err := tr.DispersionAt(i)
			if err != nil {
				return err
			}
			if d > maxDisp {
				maxDisp = d
			}
		}
		fmt.Fprintf(stdout, "max per-interval dispersion (Umax-Uavg): %.3f\n", maxDisp)
		return nil
	default:
		return fmt.Errorf("one of -gen, -inspect, -import or -convert is required")
	}
}
