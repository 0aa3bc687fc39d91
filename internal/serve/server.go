package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// Run lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// DefaultTenant keys requests that carry no X-Tenant header.
const DefaultTenant = "anonymous"

// tenantNameRE bounds tenant identifiers: short, path- and log-safe.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Config shapes a run server. The zero value is usable: private fleet,
// in-memory hub, discarded journal, unlimited quotas, a CPU-count executor
// pool and a 256-deep queue.
type Config struct {
	// Fleet is the shared scheduler every run executes on (one memoized
	// lookup space across tenants); nil builds a private one.
	Fleet *core.Fleet
	// Hub feeds the live /runs + SSE endpoints; nil builds a private one.
	Hub *obs.Hub
	// Recorder is the process-wide journal; nil discards records (they
	// still reach the hub). The server attaches its hub to it.
	Recorder *obs.Recorder
	// Telemetry, when non-nil, counts submissions, rejections and
	// completions and gauges queue depth under h2p_serve_*.
	Telemetry *telemetry.Registry
	// Queue bounds the server-wide queued-run backlog; submits past it get
	// 503. 0 means 256.
	Queue int
	// Executors is the run-executor pool size; 0 resolves like -workers 0.
	Executors int
	// MaxBodyBytes bounds request bodies (413 past it); 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxServers/MaxIntervals cap the admitted trace shape; 0 means
	// 100000 servers / 1<<20 intervals.
	MaxServers   int
	MaxIntervals int
	// TraceDir, when set, enables TraceSpec.File refs resolved under it.
	TraceDir string
	// Quota is the per-tenant admission policy.
	Quota Quota
	// Now is the server clock (timestamps, token buckets); nil means
	// time.Now. Tests inject a fake to make quota behavior deterministic.
	Now func() time.Time
	// BeforeRun, when non-nil, is called by an executor after a run enters
	// StateRunning and before its first interval — a test seam for holding
	// runs mid-flight deterministically.
	BeforeRun func(runID string)
}

// serveMetrics is the server's telemetry instrument set (all nil-safe).
type serveMetrics struct {
	submitted, accepted             *telemetry.Counter
	rejectedInvalid, rejectedRate   *telemetry.Counter
	rejectedQueue, rejectedDraining *telemetry.Counter
	completed, failed, cancelled    *telemetry.Counter
	queueDepth, runningGauge        *telemetry.Gauge
}

func newServeMetrics(r *telemetry.Registry) serveMetrics {
	return serveMetrics{
		submitted:        r.Counter("h2p_serve_submitted_total", "run submissions received (incl. sweep children)"),
		accepted:         r.Counter("h2p_serve_accepted_total", "run submissions admitted to the queue"),
		rejectedInvalid:  r.Counter("h2p_serve_rejected_invalid_total", "submissions rejected for malformed or invalid requests"),
		rejectedRate:     r.Counter("h2p_serve_rejected_quota_total", "submissions rejected by per-tenant quotas (429)"),
		rejectedQueue:    r.Counter("h2p_serve_rejected_queue_full_total", "submissions rejected by the global queue bound (503)"),
		rejectedDraining: r.Counter("h2p_serve_rejected_draining_total", "submissions rejected while draining (503)"),
		completed:        r.Counter("h2p_serve_runs_completed_total", "runs finished successfully"),
		failed:           r.Counter("h2p_serve_runs_failed_total", "runs finished with an error"),
		cancelled:        r.Counter("h2p_serve_runs_cancelled_total", "runs cancelled before or during execution"),
		queueDepth:       r.Gauge("h2p_serve_queue_depth", "queued runs across all tenants"),
		runningGauge:     r.Gauge("h2p_serve_running", "currently executing runs"),
	}
}

// runState is one accepted run's full lifecycle. Mutable fields are guarded
// by the server mutex; ctx/cancel/done and the immutable identity fields are
// set at admission and never change.
type runState struct {
	id       string
	tenant   string
	sweep    string
	req      *RunRequest
	meta     trace.Meta
	manifest obs.Manifest
	rr       *obs.RunRecorder
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	state       string
	errMsg      string
	submittedMS int64
	startedMS   int64
	finishedMS  int64
	resultJSON  []byte
	resultHash  string
	doneRec     *obs.Done
}

// sweepState groups one sweep's expanded children.
type sweepState struct {
	id          string
	tenant      string
	runIDs      []string
	submittedMS int64
}

// Server is the multi-tenant run server: a bounded queue and executor pool
// over one shared core.Fleet, an HTTP+JSON API under /api/v1, and the
// existing observability surface (journal records into the hub, live /runs,
// SSE, /metrics, /healthz) layered underneath.
type Server struct {
	cfg   Config
	fleet *core.Fleet
	hub   *obs.Hub
	rec   *obs.Recorder
	env   obs.Environment
	met   serveMetrics
	mux   http.Handler

	mu       sync.Mutex
	cond     *sync.Cond
	runs     map[string]*runState
	order    []string
	sweeps   map[string]*sweepState
	sworder  []string
	tenants  map[string]*tenant
	pending  []*runState
	queued   int // live queued runs (pending minus cancelled leftovers)
	running  int
	seq      int
	sweepSeq int
	draining bool
	closed   bool

	wg sync.WaitGroup
}

// NewServer builds a server and starts its executor pool. Callers serve
// Handler() over HTTP (telemetry.ServeHandler, httptest) and must end with
// Drain or Close.
func NewServer(cfg Config) *Server {
	if cfg.Fleet == nil {
		cfg.Fleet = core.NewFleet()
	}
	if cfg.Hub == nil {
		cfg.Hub = obs.NewHub()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder(io.Discard)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxServers <= 0 {
		cfg.MaxServers = 100000
	}
	if cfg.MaxIntervals <= 0 {
		cfg.MaxIntervals = 1 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.Recorder.SetHub(cfg.Hub)
	s := &Server{
		cfg:     cfg,
		fleet:   cfg.Fleet,
		hub:     cfg.Hub,
		rec:     cfg.Recorder,
		env:     obs.CaptureEnvironment(),
		met:     newServeMetrics(cfg.Telemetry),
		runs:    make(map[string]*runState),
		sweeps:  make(map[string]*sweepState),
		tenants: make(map[string]*tenant),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mux = s.buildMux()
	n := core.ResolveParallelism(cfg.Executors)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.executorLoop()
	}
	return s
}

// Handler returns the server's HTTP surface: the /api/v1 endpoints, with
// everything else falling through to the live-run endpoints (/runs, SSE) and
// the telemetry handler (/metrics, /metrics.json, /trace, /healthz).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.handleSubmitRun(w, r)
		case http.MethodGet:
			s.handleListRuns(w, r)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	})
	mux.HandleFunc("/api/v1/runs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/api/v1/runs/")
		id, sub, _ := strings.Cut(rest, "/")
		switch {
		case id == "":
			httpError(w, http.StatusNotFound, "missing run id")
		case sub == "" && r.Method == http.MethodGet:
			s.handleGetRun(w, r, id)
		case sub == "" && r.Method == http.MethodDelete:
			s.handleCancelRun(w, r, id)
		case sub == "result" && r.Method == http.MethodGet:
			s.handleGetResult(w, r, id)
		case sub == "" || sub == "result":
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		default:
			httpError(w, http.StatusNotFound, "unknown resource %q", sub)
		}
	})
	mux.HandleFunc("/api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleSubmitSweep(w, r)
	})
	mux.HandleFunc("/api/v1/sweeps/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/api/v1/sweeps/")
		switch r.Method {
		case http.MethodGet:
			s.handleGetSweep(w, r, id)
		case http.MethodDelete:
			s.handleCancelSweep(w, r, id)
		default:
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	})
	mux.HandleFunc("/api/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleTenants(w, r)
	})
	mux.HandleFunc("/api/v1/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "unknown API path %s (this server speaks /api/v1/runs, /api/v1/sweeps, /api/v1/tenants)", r.URL.Path)
	})
	// Everything else: live run summaries + SSE, then telemetry.
	mux.Handle("/", obs.Handler(s.hub, s.cfg.Telemetry.Handler()))
	return mux
}

// apiError is the JSON error envelope every non-2xx API response carries.
type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck // response is best-effort
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response is best-effort
}

// tenantFrom validates the request's tenant identity.
func tenantFrom(r *http.Request) (string, error) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		return DefaultTenant, nil
	}
	if !tenantNameRE.MatchString(name) {
		return "", fmt.Errorf("invalid X-Tenant %q: want 1-64 chars of [A-Za-z0-9._-]", name)
	}
	return name, nil
}

// checkShape applies the server's operational caps to a resolved trace.
func (s *Server) checkShape(meta trace.Meta) error {
	if meta.Servers > s.cfg.MaxServers {
		return fmt.Errorf("trace has %d servers, server cap is %d", meta.Servers, s.cfg.MaxServers)
	}
	if meta.Intervals > s.cfg.MaxIntervals {
		return fmt.Errorf("trace has %d intervals, server cap is %d", meta.Intervals, s.cfg.MaxIntervals)
	}
	return nil
}

// RunStatus is the API's run representation: GET /api/v1/runs/{id}, the list
// endpoint's rows, and the 202 submission response.
type RunStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Run is the journal/hub run key (<id>/<trace>/<scheme>) — the handle
	// h2pstat tail and the SSE endpoints use.
	Run        string      `json:"run"`
	Sweep      string      `json:"sweep,omitempty"`
	Request    *RunRequest `json:"request"`
	ConfigHash string      `json:"config_hash"`
	Error      string      `json:"error,omitempty"`
	// ResultHash is the FNV-64a of the canonical result JSON (set once
	// done); Result carries the headline numbers, the full document is at
	// /api/v1/runs/{id}/result.
	ResultHash  string    `json:"result_hash,omitempty"`
	Result      *obs.Done `json:"result,omitempty"`
	SubmittedMS int64     `json:"submitted_ms"`
	StartedMS   int64     `json:"started_ms,omitempty"`
	FinishedMS  int64     `json:"finished_ms,omitempty"`
}

// statusLocked renders a run's status; caller holds s.mu.
func (s *Server) statusLocked(rs *runState) *RunStatus {
	return &RunStatus{
		ID:          rs.id,
		Tenant:      rs.tenant,
		State:       rs.state,
		Run:         rs.rr.Run(),
		Sweep:       rs.sweep,
		Request:     rs.req,
		ConfigHash:  rs.manifest.ConfigHash,
		Error:       rs.errMsg,
		ResultHash:  rs.resultHash,
		Result:      rs.doneRec,
		SubmittedMS: rs.submittedMS,
		StartedMS:   rs.startedMS,
		FinishedMS:  rs.finishedMS,
	}
}

// admitLocked runs the shared admission ladder for n runs from tenant name
// and returns the tenant on success. Caller holds s.mu. The HTTP status and
// error of a rejection come back ready to write.
func (s *Server) admitLocked(name string, n int, w http.ResponseWriter) *tenant {
	if s.draining || s.closed {
		s.met.rejectedDraining.Add(uint64(n))
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "server is draining; not accepting runs")
		return nil
	}
	if s.queued+n > s.cfg.Queue {
		s.met.rejectedQueue.Add(uint64(n))
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "run queue full (%d queued, capacity %d)", s.queued, s.cfg.Queue)
		return nil
	}
	t := s.tenants[name]
	if t == nil {
		t = newTenant(name, s.cfg.Quota, s.cfg.Now())
		s.tenants[name] = t
	}
	if qerr := t.admit(s.cfg.Quota, s.cfg.Now(), n); qerr != nil {
		s.met.rejectedRate.Add(uint64(n))
		w.Header().Set("Retry-After", strconv.Itoa(qerr.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "%s", qerr.Error())
		return nil
	}
	return t
}

// enqueueLocked creates a run under an already-admitted tenant: assigns the
// id, writes the manifest (journal + hub), and appends to the pending queue.
// Caller holds s.mu.
func (s *Server) enqueueLocked(t *tenant, req *RunRequest, meta trace.Meta, sweepID string) *runState {
	s.seq++
	id := fmt.Sprintf("r%06d", s.seq)
	ctx, cancel := context.WithCancel(context.Background())
	rs := &runState{
		id:          id,
		tenant:      t.name,
		sweep:       sweepID,
		req:         req,
		meta:        meta,
		manifest:    req.Manifest(id, meta, s.env),
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		submittedMS: s.cfg.Now().UnixMilli(),
	}
	// NewRunRecorder writes the manifest record: the run is visible on
	// /runs (state via the API) from the moment it is accepted.
	rs.rr = obs.NewRunRecorder(s.rec, rs.manifest, 0)
	s.runs[id] = rs
	s.order = append(s.order, id)
	s.pending = append(s.pending, rs)
	s.queued++
	s.met.accepted.Inc()
	s.met.queueDepth.Set(float64(s.queued))
	s.cond.Broadcast()
	return rs
}

// handleSubmitRun is POST /api/v1/runs.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	s.met.submitted.Inc()
	tenantName, err := tenantFrom(r)
	if err != nil {
		s.met.rejectedInvalid.Inc()
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	req, err := ParseRunRequest(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		s.met.rejectedInvalid.Inc()
		if errors.Is(err, ErrBodyTooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	meta, err := req.Trace.Meta(s.cfg.TraceDir)
	if err != nil {
		s.met.rejectedInvalid.Inc()
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	if err := s.checkShape(meta); err != nil {
		s.met.rejectedInvalid.Inc()
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	s.mu.Lock()
	t := s.admitLocked(tenantName, 1, w)
	if t == nil {
		s.mu.Unlock()
		return
	}
	rs := s.enqueueLocked(t, req, meta, "")
	status := s.statusLocked(rs)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// SweepStatus is the API's sweep representation.
type SweepStatus struct {
	ID          string         `json:"id"`
	Tenant      string         `json:"tenant"`
	State       string         `json:"state"` // queued|running|done — done once every child is terminal
	Runs        []string       `json:"runs"`
	States      map[string]int `json:"states"`
	SubmittedMS int64          `json:"submitted_ms"`
}

// handleSubmitSweep is POST /api/v1/sweeps: the whole expansion is admitted
// atomically — quota or capacity rejection rejects the sweep, never a torn
// prefix of it.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	tenantName, err := tenantFrom(r)
	if err != nil {
		s.met.rejectedInvalid.Inc()
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	sweep, err := ParseSweepRequest(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		s.met.rejectedInvalid.Inc()
		if errors.Is(err, ErrBodyTooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	reqs, err := sweep.Expand()
	if err != nil {
		s.met.rejectedInvalid.Inc()
		httpError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	s.met.submitted.Add(uint64(len(reqs)))
	metas := make([]trace.Meta, len(reqs))
	for i, req := range reqs {
		m, err := req.Trace.Meta(s.cfg.TraceDir)
		if err != nil {
			s.met.rejectedInvalid.Add(uint64(len(reqs)))
			httpError(w, http.StatusBadRequest, "sweep run %d: %s", i, err.Error())
			return
		}
		if err := s.checkShape(m); err != nil {
			s.met.rejectedInvalid.Add(uint64(len(reqs)))
			httpError(w, http.StatusBadRequest, "sweep run %d: %s", i, err.Error())
			return
		}
		metas[i] = m
	}
	s.mu.Lock()
	t := s.admitLocked(tenantName, len(reqs), w)
	if t == nil {
		s.mu.Unlock()
		return
	}
	s.sweepSeq++
	sw := &sweepState{
		id:          fmt.Sprintf("s%06d", s.sweepSeq),
		tenant:      tenantName,
		submittedMS: s.cfg.Now().UnixMilli(),
	}
	for i, req := range reqs {
		rs := s.enqueueLocked(t, req, metas[i], sw.id)
		sw.runIDs = append(sw.runIDs, rs.id)
	}
	s.sweeps[sw.id] = sw
	s.sworder = append(s.sworder, sw.id)
	status := s.sweepStatusLocked(sw)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// sweepStatusLocked folds a sweep's children; caller holds s.mu.
func (s *Server) sweepStatusLocked(sw *sweepState) *SweepStatus {
	st := &SweepStatus{
		ID: sw.id, Tenant: sw.tenant, Runs: sw.runIDs,
		States:      make(map[string]int),
		SubmittedMS: sw.submittedMS,
	}
	terminal := 0
	queued := 0
	for _, id := range sw.runIDs {
		rs := s.runs[id]
		st.States[rs.state]++
		switch rs.state {
		case StateDone, StateFailed, StateCancelled:
			terminal++
		case StateQueued:
			queued++
		}
	}
	switch {
	case terminal == len(sw.runIDs):
		st.State = StateDone
	case queued == len(sw.runIDs):
		st.State = StateQueued
	default:
		st.State = StateRunning
	}
	return st
}

// handleListRuns is GET /api/v1/runs[?tenant=...&state=...].
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	tenantF := r.URL.Query().Get("tenant")
	stateF := r.URL.Query().Get("state")
	s.mu.Lock()
	out := make([]*RunStatus, 0, len(s.order))
	for _, id := range s.order {
		rs := s.runs[id]
		if (tenantF != "" && rs.tenant != tenantF) || (stateF != "" && rs.state != stateF) {
			continue
		}
		out = append(out, s.statusLocked(rs))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleGetRun is GET /api/v1/runs/{id}[?wait=30s]: with wait, the response
// blocks until the run reaches a terminal state or the timeout/connection
// ends, then reports the current state either way.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	rs := s.runs[id]
	s.mu.Unlock()
	if rs == nil {
		httpError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, "bad wait %q: want a duration like 30s", waitStr)
			return
		}
		const maxWait = 10 * time.Minute
		if wait > maxWait {
			wait = maxWait
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-rs.done:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	status := s.statusLocked(rs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// handleGetResult is GET /api/v1/runs/{id}/result: the canonical result JSON
// of a completed run, byte-stable across fetches.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	rs := s.runs[id]
	var state string
	var body []byte
	var errMsg string
	if rs != nil {
		state = rs.state
		body = rs.resultJSON
		errMsg = rs.errMsg
	}
	s.mu.Unlock()
	switch {
	case rs == nil:
		httpError(w, http.StatusNotFound, "unknown run %q", id)
	case state == StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Result-Hash", HashBytes(body))
		w.Write(body) //nolint:errcheck // response is best-effort
	case state == StateFailed:
		httpError(w, http.StatusConflict, "run %s failed: %s", id, errMsg)
	case state == StateCancelled:
		httpError(w, http.StatusConflict, "run %s was cancelled", id)
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "run %s is %s; result not ready", id, state)
	}
}

// handleCancelRun is DELETE /api/v1/runs/{id}. Cancelling a queued run
// finalizes it immediately; a running run's context is cancelled and the
// executor finalizes it (the engine checks its context every interval, so
// the halt is prompt and the journal records it). Terminal runs are left
// untouched — the call is idempotent.
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	rs := s.runs[id]
	if rs == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	s.cancelLocked(rs, "cancelled by client request")
	status := s.statusLocked(rs)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// cancelLocked drives one run toward cancellation; caller holds s.mu.
func (s *Server) cancelLocked(rs *runState, reason string) {
	switch rs.state {
	case StateQueued:
		rs.state = StateCancelled
		rs.errMsg = reason
		rs.finishedMS = s.cfg.Now().UnixMilli()
		if t := s.tenants[rs.tenant]; t != nil {
			t.queued--
		}
		s.queued--
		s.met.queueDepth.Set(float64(s.queued))
		s.met.cancelled.Inc()
		rs.cancel()
		rs.rr.Event(obs.EventHalt, 0, reason+" (before start)")
		close(rs.done)
		s.cond.Broadcast()
	case StateRunning:
		// The executor owns the state transition; this just pulls the rug.
		rs.errMsg = reason
		rs.cancel()
	}
}

// handleCancelSweep is DELETE /api/v1/sweeps/{id}: cancels every child.
func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	for _, rid := range sw.runIDs {
		s.cancelLocked(s.runs[rid], "cancelled with sweep "+id)
	}
	status := s.sweepStatusLocked(sw)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// handleGetSweep is GET /api/v1/sweeps/{id}.
func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.Lock()
	sw := s.sweeps[id]
	var status *SweepStatus
	if sw != nil {
		status = s.sweepStatusLocked(sw)
	}
	s.mu.Unlock()
	if status == nil {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleTenants is GET /api/v1/tenants.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStatus{
			Tenant: t.name, Queued: t.queued, Running: t.running,
			Accepted: t.accepted, RejectedRate: t.rejectedRate,
			RejectedQueue: t.rejectedFull, Tokens: t.tokens,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	writeJSON(w, http.StatusOK, out)
}

// nextLocked pops the first dispatchable pending run: skips (and drops)
// cancelled entries, and leaves runs whose tenant is at MaxConcurrent for a
// later pass without blocking other tenants behind them. Caller holds s.mu.
func (s *Server) nextLocked() *runState {
	q := s.cfg.Quota
	for i := 0; i < len(s.pending); {
		rs := s.pending[i]
		if rs.state != StateQueued {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			continue
		}
		t := s.tenants[rs.tenant]
		if q.MaxConcurrent > 0 && t.running >= q.MaxConcurrent {
			i++
			continue
		}
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		return rs
	}
	return nil
}

// executorLoop is one executor: pick a dispatchable run, execute it on the
// shared fleet, finalize, repeat until the server closes.
func (s *Server) executorLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var rs *runState
		for {
			if rs = s.nextLocked(); rs != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if rs == nil {
			s.mu.Unlock()
			return
		}
		t := s.tenants[rs.tenant]
		t.queued--
		t.running++
		s.queued--
		s.running++
		rs.state = StateRunning
		rs.startedMS = s.cfg.Now().UnixMilli()
		s.met.queueDepth.Set(float64(s.queued))
		s.met.runningGauge.Set(float64(s.running))
		s.mu.Unlock()

		if hook := s.cfg.BeforeRun; hook != nil {
			hook(rs.id)
		}
		res, err := Execute(rs.ctx, s.fleet, rs.req, s.cfg.TraceDir, rs.rr)

		s.mu.Lock()
		t.running--
		s.running--
		s.met.runningGauge.Set(float64(s.running))
		s.finishLocked(rs, res, err)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// finishLocked moves a running run to its terminal state and writes the
// closing journal record. Caller holds s.mu.
func (s *Server) finishLocked(rs *runState, res *core.Result, err error) {
	rs.finishedMS = s.cfg.Now().UnixMilli()
	switch {
	case err == nil:
		b, merr := MarshalResult(res)
		if merr != nil {
			rs.state = StateFailed
			rs.errMsg = merr.Error()
			s.met.failed.Inc()
			break
		}
		rs.state = StateDone
		rs.resultJSON = b
		rs.resultHash = HashBytes(b)
		rs.rr.Done(res)
		rs.doneRec = &obs.Done{
			Intervals:             rs.meta.Intervals,
			AvgTEGWattsPerServer:  float64(res.AvgTEGPowerPerServer),
			PeakTEGWattsPerServer: float64(res.PeakTEGPowerPerServer),
			PRE:                   res.PRE,
			TEGEnergyKWh:          float64(res.TEGEnergy),
			WallMS:                rs.finishedMS - rs.startedMS,
		}
		if res.Faults.Any() {
			f := res.Faults
			rs.doneRec.Faults = &f
		}
		s.met.completed.Inc()
	case errors.Is(err, context.Canceled):
		rs.state = StateCancelled
		if rs.errMsg == "" {
			rs.errMsg = "cancelled"
		}
		rs.rr.Event(obs.EventHalt, 0, rs.errMsg)
		s.met.cancelled.Inc()
	default:
		rs.state = StateFailed
		rs.errMsg = err.Error()
		rs.rr.Event(obs.EventNote, 0, "run failed: "+err.Error())
		s.met.failed.Inc()
	}
	close(rs.done)
}

// idleLocked reports whether no run is queued or executing.
func (s *Server) idleLocked() bool { return s.queued == 0 && s.running == 0 }

// Drain gracefully shuts the server down: new submissions get 503
// immediately, queued and running runs execute to completion, and once idle
// the executor pool exits and the hub shuts down — so SSE subscribers
// receive their terminal frame before the caller closes the HTTP listener.
// If ctx expires first, every remaining run is cancelled (journals record
// the halts) and Drain returns the context error after the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		defer close(idle)
		s.mu.Lock()
		defer s.mu.Unlock()
		for !s.idleLocked() {
			s.cond.Wait()
		}
	}()

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelEverything("cancelled by shutdown deadline")
		<-idle
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.hub.Shutdown()
	if ferr := s.rec.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Close shuts down immediately: cancels everything, stops the pool, shuts
// the hub down. For tests and fatal paths; prefer Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelEverything("cancelled by server close")
	s.mu.Lock()
	for !s.idleLocked() {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.hub.Shutdown()
	return s.rec.Flush()
}

// cancelEverything cancels all queued and running runs.
func (s *Server) cancelEverything(reason string) {
	s.mu.Lock()
	for _, id := range s.order {
		s.cancelLocked(s.runs[id], reason)
	}
	s.mu.Unlock()
}
