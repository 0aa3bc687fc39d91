package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
)

// Recorder owns one journal file and serializes record writes to it. One
// process-wide Recorder hosts every run of an invocation (h2psim runs three
// traces x two schemes against the same journal); per-run envelopes come
// from RunRecorder. Writes go through a buffered writer — the hot path
// (ObserveInterval with no progress due) never reaches it — and the first
// write error is sticky: later writes become no-ops and Err reports it, so
// a full disk degrades the journal, never the run.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	err error

	// hub, when set, receives every record for the live /runs endpoints.
	hub *Hub
	// now is the record clock; a test hook.
	now func() time.Time
}

// Create opens (or, with appendTo, appends to) the journal at path. A
// resumed run appends to the journal its first attempt started, keeping one
// file per run lineage.
func Create(path string, appendTo bool) (*Recorder, error) {
	flags := os.O_CREATE | os.O_RDWR
	if appendTo {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if appendTo {
		if err := truncateTornTail(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	r := NewRecorder(f)
	r.c = f
	return r, nil
}

// truncateTornTail cuts an unterminated final line — the torn tail of a
// write a crash interrupted — so appended records start on a line of their
// own instead of burying the torn bytes mid-file.
func truncateTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for end := fi.Size(); end > 0; {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			if keep := end - n + int64(i) + 1; keep < fi.Size() {
				return f.Truncate(keep)
			}
			return nil
		}
		end -= n
	}
	return f.Truncate(0)
}

// NewRecorder wraps an arbitrary writer (tests, pipes). Close flushes but
// only closes writers opened by Create.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriterSize(w, 32*1024)
	return &Recorder{w: bw, enc: json.NewEncoder(bw), now: time.Now}
}

// SetHub attaches a live-endpoint hub; every subsequent record is published
// to it in addition to the journal. Nil-receiver safe.
func (r *Recorder) SetHub(h *Hub) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hub = h
	r.mu.Unlock()
}

// write stamps and appends one record. Nil-receiver safe; errors are sticky.
func (r *Recorder) write(rec *Record) {
	if r == nil {
		return
	}
	r.writeAt(rec, r.clock())
}

// writeAt appends one record stamped at a clock reading the caller already
// holds, so a progress record costs one read of the clock, not two.
func (r *Recorder) writeAt(rec *Record, at time.Time) {
	r.mu.Lock()
	rec.TimeMS = at.UnixMilli()
	if r.err == nil {
		r.err = r.enc.Encode(rec)
	}
	hub := r.hub
	r.mu.Unlock()
	if hub != nil {
		hub.Publish(rec)
	}
}

// Flush drains the buffer to the underlying writer.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = r.w.Flush()
	}
	return r.err
}

// Close flushes and closes the journal (when Create opened it). Safe on nil.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	err := r.Flush()
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RunRecorder journals one run: it implements core.RunObserver (plus the
// core.CacheStatsSink and core.ShardStatsSink capabilities, which the run loop
// attaches when available) and turns the callback stream into manifest,
// progress, event and done records under its run key. A nil *RunRecorder is
// a true no-op — every method is one branch, zero allocations (pinned by
// AllocsPerRun tests) — so callers thread it unconditionally. A live one
// observing an interval with no progress due reads the clock and allocates
// nothing.
//
// Callbacks arrive from the run's merging goroutine in interval order;
// RunRecorder therefore needs no locking of its own, only Recorder's.
type RunRecorder struct {
	rec      *Recorder
	run      string
	total    int
	every    int       // count cadence; <= 0 journals by wall clock
	start    time.Time // manifest time: progress and done wall times count from it
	due      time.Time // wall cadence: earliest next progress; zero before the first interval
	observed int       // intervals seen by this writer (tail only after resume)
	sumTEG   float64   // running sum of per-interval TEG W/server
	degraded int64     // circulation-intervals degraded, as seen by this writer
	noted    bool      // degraded event already emitted (bounded: one per run)

	cacheStats func() (hits, calls uint64)
	shardStats func() core.ShardStats
}

// progressPeriod is the wall-clock progress cadence: a run journals at most
// one progress record per period, plus its final interval's.
const progressPeriod = time.Second

// NewRunRecorder opens a run under the recorder: computes the manifest's
// ConfigHash, writes the manifest record and returns the per-run observer.
// every > 0 writes a progress record every `every` intervals. every <= 0
// writes at most one per second of run (progressPeriod), timed from the
// first observed interval rather than the manifest, so a run that queued
// before it started does not journal its first interval for the wait. Both
// cadences always write the final interval's record.
func NewRunRecorder(rec *Recorder, m Manifest, every int) *RunRecorder {
	if rec == nil {
		return nil
	}
	run := m.RunID + "/" + m.Trace + "/" + m.Config.Scheme
	m.ConfigHash = m.Hash()
	rr := &RunRecorder{rec: rec, run: run, total: m.Intervals, every: every, start: rec.clock()}
	rec.write(&Record{V: JournalVersion, Type: "manifest", Run: run, Manifest: &m})
	return rr
}

// Run returns the recorder's run key ("<run-id>/<trace>/<scheme>").
func (rr *RunRecorder) Run() string {
	if rr == nil {
		return ""
	}
	return rr.run
}

// AttachCacheStats implements core.CacheStatsSink.
func (rr *RunRecorder) AttachCacheStats(stats func() (hits, calls uint64)) {
	if rr == nil {
		return
	}
	rr.cacheStats = stats
}

// AttachShardStats implements core.ShardStatsSink.
func (rr *RunRecorder) AttachShardStats(stats func() core.ShardStats) {
	if rr == nil {
		return
	}
	rr.shardStats = stats
}

// ObserveInterval implements core.RunObserver: it folds the interval into
// the running means and emits a progress record when the cadence is due.
func (rr *RunRecorder) ObserveInterval(interval int, ir core.IntervalResult) {
	if rr == nil {
		return
	}
	rr.observed++
	rr.sumTEG += float64(ir.TEGPowerPerServer)
	if ir.DegradedCirculations > 0 {
		rr.degraded += int64(ir.DegradedCirculations)
		if !rr.noted {
			rr.noted = true
			rr.event(EventDegraded, interval, "first degraded interval (circulations excluded after retries)")
		}
	}
	final := interval == rr.total-1
	if rr.every > 0 {
		if rr.observed%rr.every == 0 || final {
			rr.progress(interval, rr.rec.clock())
		}
		return
	}
	now := rr.rec.clock()
	if rr.due.IsZero() {
		rr.due = now.Add(progressPeriod)
	}
	if final || !now.Before(rr.due) {
		rr.due = now.Add(progressPeriod)
		rr.progress(interval, now)
	}
}

// progress assembles and writes one progress record stamped at now.
func (rr *RunRecorder) progress(interval int, now time.Time) {
	wall := now.Sub(rr.start)
	p := &Progress{
		Interval:             interval,
		Done:                 interval + 1,
		Total:                rr.total,
		WallMS:               wall.Milliseconds(),
		AvgTEGWattsPerServer: rr.sumTEG / float64(rr.observed),
		CacheHitRate:         -1,
		DegradedIntervals:    rr.degraded,
	}
	if secs := wall.Seconds(); secs > 0 {
		p.IntervalsPerSec = float64(rr.observed) / secs
		if left := rr.total - p.Done; left > 0 && p.IntervalsPerSec > 0 {
			p.EtaMS = int64(float64(left) / p.IntervalsPerSec * 1000)
		}
	}
	if rr.cacheStats != nil {
		if hits, calls := rr.cacheStats(); calls > 0 {
			p.CacheHitRate = float64(hits) / float64(calls)
		} else {
			p.CacheHitRate = 0
		}
	}
	if rr.shardStats != nil {
		st := rr.shardStats()
		p.Shard = &st
	}
	rr.rec.writeAt(&Record{Type: "progress", Run: rr.run, Progress: p}, now)
}

// clock reads the recorder's clock (the test hook).
func (r *Recorder) clock() time.Time {
	r.mu.Lock()
	now := r.now()
	r.mu.Unlock()
	return now
}

// ObserveCheckpoint implements core.RunObserver.
func (rr *RunRecorder) ObserveCheckpoint(done int) {
	if rr == nil {
		return
	}
	rr.event(EventCheckpoint, done, "")
}

// ObserveResume implements core.RunObserver; start is the first interval the
// resumed run will compute.
func (rr *RunRecorder) ObserveResume(start int) {
	if rr == nil {
		return
	}
	rr.event(EventResume, start, "resumed from checkpoint")
}

// ObserveHalt implements core.RunObserver; done intervals were completed and
// checkpointed before the halt.
func (rr *RunRecorder) ObserveHalt(done int) {
	if rr == nil {
		return
	}
	rr.event(EventHalt, done, "halted at checkpoint boundary")
}

// Event writes an ad-hoc lifecycle event (fault activation notes and the
// like). Nil-receiver safe.
func (rr *RunRecorder) Event(kind string, interval int, detail string) {
	if rr == nil {
		return
	}
	rr.event(kind, interval, detail)
}

func (rr *RunRecorder) event(kind string, interval int, detail string) {
	rr.rec.write(&Record{Type: "event", Run: rr.run, Event: &Event{Kind: kind, Interval: interval, Detail: detail}})
}

// Done closes the run with its headline results. Call once, after the run
// returns successfully; halted runs end with their halt event instead.
func (rr *RunRecorder) Done(res *core.Result) {
	if rr == nil || res == nil {
		return
	}
	now := rr.rec.clock()
	d := &Done{
		Intervals:             rr.total,
		AvgTEGWattsPerServer:  float64(res.AvgTEGPowerPerServer),
		PeakTEGWattsPerServer: float64(res.PeakTEGPowerPerServer),
		PRE:                   res.PRE,
		TEGEnergyKWh:          float64(res.TEGEnergy),
		WallMS:                now.Sub(rr.start).Milliseconds(),
	}
	if res.Faults.Any() {
		f := res.Faults
		d.Faults = &f
	}
	rr.rec.writeAt(&Record{Type: "done", Run: rr.run, Done: d}, now)
}
