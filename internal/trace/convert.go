package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// ConvertToCSV streams a source into the canonical WriteCSV layout without
// ever materializing the servers × intervals matrix. The output is
// byte-identical to Materialize(src).WriteCSV(w): both write through the
// one canonical row writer, which refuses names that need quoting before
// the source is read.
//
// The canonical layout is server-major but sources deliver interval-major
// columns, so the conversion transposes through a fixed-width binary spool
// file:
//
//   - Columns are buffered in batches of convertSpoolBudget bytes and
//     written to the spool at each cell's final server-major offset
//     (server*intervals + interval)*8 — one contiguous write per server per
//     batch, so the spool fills with large sequential runs.
//   - A second pass reads the spool sequentially and emits one CSV row per
//     server.
//
// Peak memory is O(servers) + the constant batch budget, independent of the
// interval count; the spool lives in tmpDir ("" = the system default) and
// is removed before return.
func ConvertToCSV(src Source, w io.Writer, tmpDir string) error {
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return err
	}
	cw, err := newCSVWriter(w, m)
	if err != nil {
		return err
	}
	spool, err := os.CreateTemp(tmpDir, "h2p-convert-*.spool")
	if err != nil {
		return err
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()
	if err := spoolColumns(src, spool, m); err != nil {
		return err
	}
	return writeCanonicalFromSpool(spool, cw, m)
}

// convertSpoolBudget bounds the column batch the converter holds in memory
// (bytes of float64 cells). 4 MiB batches keep spool writes long and
// sequential while the working set stays small.
const convertSpoolBudget = 4 << 20

// spoolColumns drains the source into the spool in server-major order.
func spoolColumns(src Source, spool *os.File, m Meta) error {
	// batchCols columns are gathered before scattering to the spool; at
	// least one, however wide the cluster is.
	batchCols := convertSpoolBudget / (8 * m.Servers)
	if batchCols < 1 {
		batchCols = 1
	}
	if batchCols > m.Intervals {
		batchCols = m.Intervals
	}
	batch := make([]float64, batchCols*m.Servers) // column-major within the batch
	enc := make([]byte, batchCols*8)
	col := make([]float64, m.Servers)
	done := 0 // columns already spooled
	inBatch := 0
	flush := func() error {
		if inBatch == 0 {
			return nil
		}
		for s := 0; s < m.Servers; s++ {
			for c := 0; c < inBatch; c++ {
				binary.LittleEndian.PutUint64(enc[c*8:], math.Float64bits(batch[c*m.Servers+s]))
			}
			off := (int64(s)*int64(m.Intervals) + int64(done)) * 8
			if _, err := spool.WriteAt(enc[:inBatch*8], off); err != nil {
				return err
			}
		}
		done += inBatch
		inBatch = 0
		return nil
	}
	for {
		i, err := src.NextColumn(col)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if i != done+inBatch {
			return fmt.Errorf("trace: convert: source delivered interval %d, want %d", i, done+inBatch)
		}
		copy(batch[inBatch*m.Servers:], col)
		inBatch++
		if inBatch == batchCols {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if done != m.Intervals {
		return fmt.Errorf("trace: convert: source delivered %d columns, meta says %d", done, m.Intervals)
	}
	return nil
}

// writeCanonicalFromSpool emits the canonical rows from the server-major
// spool through cw, the writer WriteCSV uses.
func writeCanonicalFromSpool(spool *os.File, cw *csvWriter, m Meta) error {
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(spool, 64<<10)
	cell := make([]byte, 8)
	for s := 0; s < m.Servers; s++ {
		cw.startRow(s)
		for i := 0; i < m.Intervals; i++ {
			if _, err := io.ReadFull(br, cell); err != nil {
				return err
			}
			cw.value(math.Float64frombits(binary.LittleEndian.Uint64(cell)))
		}
		if err := cw.endRow(); err != nil {
			return err
		}
	}
	return cw.flush()
}
