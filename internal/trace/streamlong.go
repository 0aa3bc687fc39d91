package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// LongFormatSource streams a long-format usage file (one row per machine ×
// timestamp observation) as trace columns with an O(machines) working set.
//
// It makes two passes over the data — which is why it is built from a
// reopen function rather than a plain reader:
//
//   - Pass 1 (construction) discovers the machine population in order of
//     first appearance, the resampled bucket span, and each machine's
//     first-bucket mean (the carry-forward seed ReadLongFormat uses for
//     leading gaps). Retained state is O(machines).
//   - Pass 2 (NextColumn) re-reads the file, averaging each bucket's
//     observations and emitting one column per bucket; gap buckets repeat
//     the machine's previous value, exactly like the in-memory reader.
//
// The streaming pass requires observations in non-decreasing bucket order
// (the natural order of the published cluster traces; jitter within one
// bucket is fine). Files that interleave buckets out of order are rejected
// with ErrUnsortedLongFormat — use ReadLongFormat for those. Pass 1 finds
// the first step back, so the source fails its first NextColumn and never
// emits a column averaged over part of a bucket.
//
// On bucket-sorted input the emitted columns are bit-identical to
// ReadLongFormat's matrix: both accumulate each bucket's samples in file
// order and divide once, so no floating-point sum is reassociated.
type LongFormatSource struct {
	opts LongFormatOptions
	meta Meta

	rc   io.ReadCloser
	cr   *csv.Reader
	need int

	machines  map[string]int
	minBucket int
	// unsorted is pass 1's ErrUnsortedLongFormat, returned by every
	// NextColumn; nil for bucket-sorted input.
	unsorted error

	// last carries each machine's most recent bucket mean; sum/n accumulate
	// the bucket currently being filled.
	last, sum, n []float64

	// pending is one read-ahead row belonging to a future bucket.
	pending    longRow
	hasPending bool
	done       bool
	next       int // next interval (bucket - minBucket) to emit
}

// ErrUnsortedLongFormat reports observations that go backwards in time at
// bucket granularity — the one ordering the streaming reader cannot absorb.
var ErrUnsortedLongFormat = fmt.Errorf("trace: long-format observations are not in bucket order (use the in-memory reader)")

// OpenLongFormatFile builds a streaming source over the long-format file at
// path. Close releases the file held by the streaming pass.
func OpenLongFormatFile(path string, o LongFormatOptions) (*LongFormatSource, error) {
	open := func() (io.ReadCloser, error) { return os.Open(path) }
	return NewLongFormatSource(open, o)
}

// NewLongFormatSource scans the data once to learn its shape (pass 1), then
// opens the streaming pass. open must return a fresh reader over the same
// bytes on every call; the source owns (and Closes) the pass-2 reader.
func NewLongFormatSource(open func() (io.ReadCloser, error), o LongFormatOptions) (*LongFormatSource, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	need := o.neededColumns()

	// Pass 1: machine population, bucket span, first-bucket seeds.
	rc, err := open()
	if err != nil {
		return nil, err
	}
	scan, err := scanLongFormat(rc, o, need)
	cerr := rc.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}

	src := &LongFormatSource{
		opts:      o,
		need:      need,
		machines:  scan.machines,
		minBucket: scan.minBucket,
		unsorted:  scan.unsorted,
		last:      scan.firstMeans, // pre-seeded carry values
		sum:       make([]float64, len(scan.machines)),
		n:         make([]float64, len(scan.machines)),
		meta: Meta{
			Name:      o.Name,
			Class:     o.Class,
			Servers:   len(scan.machines),
			Intervals: scan.maxBucket - scan.minBucket + 1,
			Interval:  o.Interval,
		},
	}
	if err := src.meta.Validate(); err != nil {
		return nil, err
	}

	// Pass 2: the streaming read.
	if src.rc, err = open(); err != nil {
		return nil, err
	}
	src.cr = longReader(src.rc, o)
	return src, nil
}

// Meta reports the resampled shape discovered in pass 1.
func (s *LongFormatSource) Meta() Meta { return s.meta }

// Close releases the streaming pass's reader.
func (s *LongFormatSource) Close() error { return s.rc.Close() }

// NextColumn emits the next bucket's column: consumed observations for the
// bucket are averaged, machines without one repeat their previous value.
func (s *LongFormatSource) NextColumn(dst []float64) (int, error) {
	if s.unsorted != nil {
		return 0, s.unsorted
	}
	if s.next >= s.meta.Intervals {
		return 0, io.EOF
	}
	if len(dst) != s.meta.Servers {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), s.meta.Servers)
	}
	bucket := s.minBucket + s.next
	for !s.done {
		if s.hasPending {
			if s.pending.bucket > bucket {
				break // future bucket: emit this one first
			}
			// The pending row advanced us here, so it can only be == bucket.
			if err := s.accumulate(s.pending); err != nil {
				return 0, err
			}
			s.hasPending = false
			continue
		}
		rec, err := s.cr.Read()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return 0, fmt.Errorf("trace: long format: %w", err)
		}
		row, err := parseLongRow(rec, s.opts, s.need)
		if err != nil {
			return 0, err
		}
		if row.bucket < bucket {
			// Pass 1 found the input sorted, so the bytes changed between
			// passes.
			return 0, fmt.Errorf("%w: bucket %d after bucket %d", ErrUnsortedLongFormat, row.bucket, bucket)
		}
		if row.bucket > bucket {
			s.pending, s.hasPending = row, true
			break
		}
		if err := s.accumulate(row); err != nil {
			return 0, err
		}
	}
	// Fold the bucket's accumulators into the carry values and emit.
	for m := range s.sum {
		if s.n[m] > 0 {
			s.last[m] = s.sum[m] / s.n[m]
			s.sum[m], s.n[m] = 0, 0
		}
	}
	copy(dst, s.last)
	i := s.next
	s.next++
	return i, nil
}

// accumulate folds one observation into its machine's current bucket.
func (s *LongFormatSource) accumulate(row longRow) error {
	m, ok := s.machines[row.id]
	if !ok {
		// Pass 1 saw every machine, so a new id here means the underlying
		// bytes changed between passes.
		return fmt.Errorf("trace: machine %q appeared between passes; input is not stable", row.id)
	}
	s.sum[m] += row.util
	s.n[m]++
	return nil
}

// longScan is pass 1's outcome.
type longScan struct {
	machines             map[string]int
	minBucket, maxBucket int
	firstMeans           []float64
	unsorted             error // the first step back in bucket order
}

// scanLongFormat streams the file once, retaining O(machines) state: the
// dense machine indexing (order of first appearance, matching
// ReadLongFormat), the bucket span, and each machine's earliest bucket's
// mean — the seed that keeps leading gaps from reading as idle. It notes
// the first row whose bucket lies before an earlier row's.
func scanLongFormat(r io.Reader, o LongFormatOptions, need int) (*longScan, error) {
	cr := longReader(r, o)
	scan := &longScan{
		machines:  map[string]int{},
		minBucket: int(^uint(0) >> 1),
		maxBucket: -int(^uint(0) >> 1),
	}
	var firstBucket []int
	var firstSum, firstN []float64
	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: long format: %w", err)
		}
		row, err := parseLongRow(rec, o, need)
		if err != nil {
			return nil, err
		}
		m, ok := scan.machines[row.id]
		if !ok {
			m = len(scan.machines)
			scan.machines[row.id] = m
			firstBucket = append(firstBucket, row.bucket)
			firstSum = append(firstSum, 0)
			firstN = append(firstN, 0)
		}
		if row.bucket < scan.maxBucket && scan.unsorted == nil {
			scan.unsorted = fmt.Errorf("%w: bucket %d after bucket %d", ErrUnsortedLongFormat, row.bucket, scan.maxBucket)
		}
		if row.bucket < scan.minBucket {
			scan.minBucket = row.bucket
		}
		if row.bucket > scan.maxBucket {
			scan.maxBucket = row.bucket
		}
		switch {
		case row.bucket < firstBucket[m]:
			firstBucket[m], firstSum[m], firstN[m] = row.bucket, row.util, 1
		case row.bucket == firstBucket[m]:
			firstSum[m] += row.util
			firstN[m]++
		}
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("trace: long format file has no data rows")
	}
	if span := scan.maxBucket - scan.minBucket + 1; span > MaxLongFormatIntervals {
		return nil, fmt.Errorf("trace: file spans %d intervals (max %d)", span, MaxLongFormatIntervals)
	}
	scan.firstMeans = make([]float64, len(firstSum))
	for m := range firstSum {
		scan.firstMeans[m] = firstSum[m] / firstN[m]
	}
	return scan, nil
}
