package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestConvertToCSVByteIdentical pins the streaming converter's output to
// the in-memory reference path (ReadLongFormat + WriteCSV) byte for byte,
// under the default name and under names that an encoding/csv writer would
// quote or that hold a tab; the output streams back through CSVSource with
// its name intact. A name that needs quoting is refused by both paths with
// one error.
func TestConvertToCSVByteIdentical(t *testing.T) {
	input := "" +
		"m0,0,10\n" +
		"m0,60,30\n" +
		"m1,250,40\n" +
		"m0,300,50\n" +
		"m1,320,60\n" +
		"m0,900,70\n" +
		"m2,910,80\n"
	convert := func(o LongFormatOptions) (want, got []byte, wantErr, gotErr error) {
		t.Helper()
		dense, err := ReadLongFormat(strings.NewReader(input), o)
		if err != nil {
			t.Fatal(err)
		}
		var wb bytes.Buffer
		wantErr = dense.WriteCSV(&wb)
		open := func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(input)), nil
		}
		src, err := NewLongFormatSource(open, o)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var gb bytes.Buffer
		gotErr = ConvertToCSV(src, &gb, t.TempDir())
		return wb.Bytes(), gb.Bytes(), wantErr, gotErr
	}
	for _, name := range []string{AlibabaOptions().Name, " lead", `\.`, "tab\tin"} {
		o := AlibabaOptions()
		o.Name = name
		want, got, wantErr, gotErr := convert(o)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%q: WriteCSV error %v, ConvertToCSV error %v", name, wantErr, gotErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: streamed conversion differs from reference:\n--- streamed ---\n%s\n--- reference ---\n%s",
				name, got, want)
		}
		src, err := NewCSVSource(bytes.NewReader(got), int64(len(got)))
		if err != nil {
			t.Fatalf("%q: converted output does not stream back: %v", name, err)
		}
		if m := src.Meta(); m.Name != name {
			t.Fatalf("converted output reads back name %q, want %q", m.Name, name)
		}
	}
	o := AlibabaOptions()
	o.Name = "comma,name"
	_, got, wantErr, gotErr := convert(o)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("comma in name: WriteCSV error %v, ConvertToCSV error %v, want one error from both", wantErr, gotErr)
	}
	if len(got) != 0 {
		t.Fatalf("ConvertToCSV wrote %d bytes before refusing the name", len(got))
	}
}

// TestConvertToCSVGenerator round-trips a generated trace through the
// converter and the streaming CSV reader.
func TestConvertToCSVGenerator(t *testing.T) {
	cfg := CommonConfig(7)
	g, err := NewGeneratorSource(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ConvertToCSV(g, &got, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("generator conversion differs from WriteCSV reference")
	}
	// And the converted bytes stream back loss-free.
	src, err := NewCSVSource(bytes.NewReader(got.Bytes()), int64(got.Len()))
	if err != nil {
		t.Fatal(err)
	}
	requireColumnsEqualTrace(t, drainSource(t, src), tr)
}
