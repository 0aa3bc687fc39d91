package obs

import "sync"

// Hub is the live-run rendezvous between recorders and the HTTP endpoints:
// recorders publish every journal record into it; the /runs handlers read
// per-run summaries out of it and SSE subscribers stream records as they
// arrive. It is purely in-memory — the journal file stays the durable copy.
type Hub struct {
	mu   sync.Mutex
	runs map[string]*RunSummary
	subs map[string]map[chan Record]struct{} // run key "" subscribes to all

	// order remembers first-seen run order for stable listing.
	order []string

	// closed is closed by Shutdown; SSE handlers select on it so every
	// subscriber receives a terminal frame before the listener goes away.
	closed    chan struct{}
	closeOnce sync.Once
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{
		runs:   make(map[string]*RunSummary),
		subs:   make(map[string]map[chan Record]struct{}),
		closed: make(chan struct{}),
	}
}

// Shutdown marks the hub terminally closed. Every SSE handler streaming from
// it writes a final "shutdown" frame and returns, which is what makes a
// graceful HTTP shutdown ordering explicit: close the hub first, then shut
// the listener down — in-flight event streams end cleanly instead of riding
// the shutdown timeout. Idempotent and nil-receiver safe; Publish after
// Shutdown still folds summaries (late done records stay visible on /runs).
func (h *Hub) Shutdown() {
	if h == nil {
		return
	}
	h.closeOnce.Do(func() { close(h.closed) })
}

// Done returns a channel closed once the hub has shut down. Nil-receiver
// safe: a nil hub is never done.
func (h *Hub) Done() <-chan struct{} {
	if h == nil {
		return nil
	}
	return h.closed
}

// subscriberBuffer bounds each SSE subscriber's channel. A subscriber that
// falls this many records behind loses the newest record rather than
// stalling the run — the journal, not the live stream, is complete.
const subscriberBuffer = 256

// Publish folds one record into the live summaries and fans it out to
// subscribers. Nil-receiver safe. Slow subscribers drop records rather than
// block the recording goroutine.
func (h *Hub) Publish(rec *Record) {
	if h == nil || rec == nil {
		return
	}
	h.mu.Lock()
	s := h.runs[rec.Run]
	if s == nil {
		s = &RunSummary{Run: rec.Run, FirstMS: rec.TimeMS}
		h.runs[rec.Run] = s
		h.order = append(h.order, rec.Run)
	}
	fold(s, rec)
	// Snapshot the matching subscriber channels under the lock, send after.
	var targets []chan Record
	for ch := range h.subs[rec.Run] {
		targets = append(targets, ch)
	}
	for ch := range h.subs[""] {
		targets = append(targets, ch)
	}
	h.mu.Unlock()
	for _, ch := range targets {
		select {
		case ch <- *rec:
		default: // drop: the journal is the durable record
		}
	}
}

// fold applies one record to a summary: Summarize folds a journal file
// through it, the hub each published record.
func fold(s *RunSummary, rec *Record) {
	s.Records++
	if rec.TimeMS > s.LastMS {
		s.LastMS = rec.TimeMS
	}
	switch rec.Type {
	case "manifest":
		if rec.Manifest != nil {
			m := *rec.Manifest
			s.Manifest = &m
		}
	case "progress":
		if rec.Progress != nil {
			p := *rec.Progress
			s.Progress = &p
		}
	case "event":
		if rec.Event == nil {
			return
		}
		switch rec.Event.Kind {
		case EventCheckpoint:
			s.Checkpoints++
		case EventResume:
			s.Resumes++
		case EventHalt:
			s.Halts++
			s.HaltedAt = rec.Event.Interval
		case EventDegraded:
			s.Degraded++
		}
	case "done":
		if rec.Done != nil {
			d := *rec.Done
			s.Done = &d
		}
	}
}

// Runs lists the live run summaries in first-seen order. The summaries are
// copies; mutating them does not race the hub.
func (h *Hub) Runs() []*RunSummary {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*RunSummary, 0, len(h.order))
	for _, run := range h.order {
		s := *h.runs[run]
		out = append(out, &s)
	}
	return out
}

// Run returns one run's summary (a copy), or nil when unknown.
func (h *Hub) Run(key string) *RunSummary {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.runs[key]
	if s == nil {
		return nil
	}
	cp := *s
	return &cp
}

// Subscribe registers for records of one run (or every run, with key "").
// The returned channel receives records until cancel is called; records a
// slow receiver misses are dropped, not queued unboundedly.
func (h *Hub) Subscribe(key string) (ch chan Record, cancel func()) {
	ch = make(chan Record, subscriberBuffer)
	if h == nil {
		return ch, func() {}
	}
	h.mu.Lock()
	set := h.subs[key]
	if set == nil {
		set = make(map[chan Record]struct{})
		h.subs[key] = set
	}
	set[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs[key], ch)
		h.mu.Unlock()
	}
}
