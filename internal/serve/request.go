// Package serve is the simulation-as-a-service layer: a long-running run
// server that accepts trace-driven evaluation requests over HTTP+JSON,
// validates and hashes each into an obs manifest, schedules it on a shared
// core.Fleet behind a bounded queue with per-tenant quotas, and exposes the
// results — while the existing observability surface (journal, /runs, SSE,
// h2pstat) keeps working unchanged against server-born runs.
//
// The API lives under /api/v1. The versioning rule mirrors the journal's
// (internal/obs): within v1, changes are additive only — new optional request
// fields (the decoder's DisallowUnknownFields means clients must not send
// fields the server does not know, so additions are server-first) and new
// response fields. Any change that alters the meaning of an existing field
// is a new prefix (/api/v2), never a silent redefinition.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/trace"
)

// DefaultMaxBodyBytes bounds a request body read when the server config does
// not override it. Run requests are a few hundred bytes; a megabyte leaves
// generous headroom for sweeps without letting a client balloon the decoder.
const DefaultMaxBodyBytes = 1 << 20

// ErrBodyTooLarge reports a request body past the configured bound. The
// handler maps it to 413 Request Entity Too Large; the read itself stops at
// the bound, so an oversize body never allocates past it.
var ErrBodyTooLarge = errors.New("serve: request body too large")

// Request caps: structural sanity bounds the decoder enforces regardless of
// the server's (typically tighter) operational limits.
const (
	maxRequestServers   = 1 << 20
	maxRequestIntervals = 1 << 22
	maxRequestFanout    = 1 << 12 // shards or workers
	maxSweepRuns        = 4096
	maxFaultPlanLen     = 4096
	maxTraceFileLen     = 512
)

// TraceSpec names the workload a run evaluates: either a synthetic generator
// spec (Class + Servers + Seed, the paper's three calibrated classes) or a
// server-local CSV trace ref (File, resolved under the server's -trace-dir).
type TraceSpec struct {
	// Class picks a synthetic generator preset: "drastic", "irregular" or
	// "common". Exactly one of Class and File must be set.
	Class string `json:"class,omitempty"`
	// Servers sizes the synthetic trace; required with Class.
	Servers int `json:"servers,omitempty"`
	// Seed seeds the synthetic generator. An h2psim invocation derives its
	// per-class seeds as trace.CanonicalSeed(base, classIndex); a request
	// that wants bit-identity with a CLI run passes that derived value.
	Seed int64 `json:"seed,omitempty"`
	// Intervals, when positive, trims the class's canonical horizon to this
	// many control intervals (the interval length stays the class's). 0
	// keeps the canonical horizon. Generator specs only.
	Intervals int `json:"intervals,omitempty"`
	// File is a trace ref: a CSV path relative to the server's trace
	// directory. Rejected when the server has no trace directory, or when
	// the path escapes it.
	File string `json:"file,omitempty"`
}

// RunRequest is the POST /api/v1/runs body: everything that shapes one
// trace x scheme evaluation. The zero value of every optional field is the
// h2psim default, so a request and the equivalent CLI flags pick the same
// arithmetic.
type RunRequest struct {
	Trace TraceSpec `json:"trace"`
	// Scheme is "original"/"loadbalance" (the sched.Scheme names
	// "TEG_Original"/"TEG_LoadBalance" are also accepted); required.
	Scheme string `json:"scheme"`
	// ServersPerCirculation is n of Sec. V-A; 0 means the paper's 25.
	ServersPerCirculation int `json:"servers_per_circulation,omitempty"`
	// Workers is the run's engine shard count (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
	// Shards, when positive, is an alias for Workers that takes precedence
	// over it, like h2psim's -shards.
	Shards int `json:"shards,omitempty"`
	// Quantum is the decision quantum (0 = exact).
	Quantum float64 `json:"quantum,omitempty"`
	// FaultPlan is the kind:rate[:severity] DSL or inline JSON plan; empty
	// runs fault-free. FaultSeed 0 means h2psim's default seed 1.
	FaultPlan string `json:"fault_plan,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// KeepSeries retains the per-interval series in the result JSON.
	KeepSeries bool `json:"keep_series,omitempty"`
	// Environment selects the facility environment; nil is the constant
	// default (bit-identical to requests predating the block).
	Environment *EnvSpec `json:"environment,omitempty"`

	// scheme/faults carry the validated forms; populated by Validate.
	scheme sched.Scheme
	faults *fault.Plan
}

// EnvSpec is the optional "environment" block of a run request: the facility
// environment source plus the heat-reuse and storage knobs. Profile files
// are CLI-only — the server never reads client-named files, the same policy
// as fault plans — so the only kinds here are the self-contained ones.
type EnvSpec struct {
	// Kind selects the source: "constant" (the engine default) or
	// "seasonal" (diurnal + annual sinusoids with seeded jitter). Empty
	// means constant.
	Kind string `json:"kind,omitempty"`
	// Seed seeds the seasonal jitter stream; ignored for constant.
	Seed int64 `json:"seed,omitempty"`
	// Reuse enables the district-heating sink at its default economics
	// (45 °C minimum grade, $0.03/kWh thermal).
	Reuse bool `json:"reuse,omitempty"`
	// StorageWh, when positive, buffers harvested power through a hybrid
	// SC+battery sized to this total capacity.
	StorageWh float64 `json:"storage_wh,omitempty"`
}

// Validate checks the environment block.
func (e *EnvSpec) Validate() error {
	if e == nil {
		return nil
	}
	switch strings.ToLower(strings.TrimSpace(e.Kind)) {
	case "", "constant", "seasonal":
	default:
		return fmt.Errorf("serve: environment kind %q (want constant or seasonal; profiles are CLI-only)", e.Kind)
	}
	if e.Seed < 0 {
		return errors.New("serve: environment seed must be non-negative")
	}
	if math.IsNaN(e.StorageWh) || math.IsInf(e.StorageWh, 0) || e.StorageWh < 0 {
		return errors.New("serve: storage_wh must be finite and non-negative")
	}
	return nil
}

// seasonal reports whether the block asks for the seasonal source.
func (e *EnvSpec) seasonal() bool {
	return e != nil && strings.EqualFold(strings.TrimSpace(e.Kind), "seasonal")
}

// apply wires the block into an engine configuration.
func (e *EnvSpec) apply(cfg *core.Config) {
	if e == nil {
		return
	}
	if e.seasonal() {
		cfg.Env = env.DefaultSeasonal(uint64(e.Seed))
	}
	if e.Reuse {
		cfg.Reuse = heatreuse.DefaultSink()
	}
	if e.StorageWh > 0 {
		spec := storage.BufferForCapacity(e.StorageWh)
		cfg.Storage = &spec
	}
}

// SweepRequest is the POST /api/v1/sweeps body: a base run request expanded
// over the cross-product of the axis lists. Empty axes inherit the base
// field, so {base} alone is a one-run sweep.
type SweepRequest struct {
	Base RunRequest `json:"base"`
	// Classes/Schemes/Seeds are the sweep axes; each empty list means
	// "just the base's value".
	Classes []string `json:"classes,omitempty"`
	Schemes []string `json:"schemes,omitempty"`
	Seeds   []int64  `json:"seeds,omitempty"`
}

// decodeStrict parses exactly one JSON value from a bounded read of r:
// unknown fields, trailing data and bodies past maxBytes are errors, and the
// read never allocates more than maxBytes+1 bytes.
func decodeStrict(r io.Reader, maxBytes int64, v any) error {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return fmt.Errorf("serve: reading request: %w", err)
	}
	if int64(len(data)) > maxBytes {
		return ErrBodyTooLarge
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: request JSON: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("serve: trailing data after request JSON")
	}
	return nil
}

// ParseRunRequest decodes and validates one run request from a bounded read
// of r. It is the single decoder behind POST /api/v1/runs (and the fuzz
// target): strict about unknown fields, bounded in allocation, and rejects
// non-finite numerics like the trace readers do.
func ParseRunRequest(r io.Reader, maxBytes int64) (*RunRequest, error) {
	var req RunRequest
	if err := decodeStrict(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// ParseSweepRequest decodes and validates one sweep request, returning the
// validated sweep; Expand produces the concrete run list.
func ParseSweepRequest(r io.Reader, maxBytes int64) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// parseScheme canonicalizes the request's scheme spelling.
func parseScheme(s string) (sched.Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "original", "orig", strings.ToLower(string(sched.Original)):
		return sched.Original, nil
	case "loadbalance", "load-balance", "lb", strings.ToLower(string(sched.LoadBalance)):
		return sched.LoadBalance, nil
	case "":
		return "", errors.New("serve: scheme is required (original or loadbalance)")
	default:
		return "", fmt.Errorf("serve: unknown scheme %q (want original or loadbalance)", s)
	}
}

// parseClass canonicalizes a generator class name.
func parseClass(s string) (trace.Class, error) {
	switch trace.Class(strings.ToLower(strings.TrimSpace(s))) {
	case trace.Drastic:
		return trace.Drastic, nil
	case trace.Irregular:
		return trace.Irregular, nil
	case trace.Common:
		return trace.Common, nil
	default:
		return "", fmt.Errorf("serve: unknown trace class %q (want drastic, irregular or common)", s)
	}
}

// Validate checks the request's structural sanity and canonicalizes the
// scheme, class and fault plan. Operational limits (the server's caps) are
// applied separately at admission so the same request can be validated
// offline by clients like h2pload.
func (r *RunRequest) Validate() error {
	scheme, err := parseScheme(r.Scheme)
	if err != nil {
		return err
	}
	r.scheme = scheme
	r.Scheme = string(scheme)

	t := &r.Trace
	switch {
	case t.File != "" && t.Class != "":
		return errors.New("serve: trace: set class or file, not both")
	case t.File != "":
		if len(t.File) > maxTraceFileLen {
			return fmt.Errorf("serve: trace file ref longer than %d bytes", maxTraceFileLen)
		}
		if t.Servers != 0 || t.Intervals != 0 {
			return errors.New("serve: trace: servers/intervals are generator fields; a file ref carries its own shape")
		}
		clean := filepath.Clean("/" + filepath.ToSlash(t.File))
		if strings.Contains(t.File, "..") || clean == "/" {
			return fmt.Errorf("serve: trace file ref %q escapes the trace directory", t.File)
		}
	default:
		class, err := parseClass(t.Class)
		if err != nil {
			return err
		}
		t.Class = string(class)
		if t.Servers <= 0 {
			return errors.New("serve: trace: servers must be positive")
		}
		if t.Servers > maxRequestServers {
			return fmt.Errorf("serve: trace: servers %d above cap %d", t.Servers, maxRequestServers)
		}
		if t.Intervals < 0 {
			return errors.New("serve: trace: intervals must be non-negative")
		}
		if t.Intervals > maxRequestIntervals {
			return fmt.Errorf("serve: trace: intervals %d above cap %d", t.Intervals, maxRequestIntervals)
		}
	}

	if r.ServersPerCirculation < 0 {
		return errors.New("serve: servers_per_circulation must be non-negative")
	}
	if r.ServersPerCirculation > maxRequestServers {
		return fmt.Errorf("serve: servers_per_circulation above cap %d", maxRequestServers)
	}
	if r.Workers < 0 || r.Workers > maxRequestFanout {
		return fmt.Errorf("serve: workers must be in [0, %d]", maxRequestFanout)
	}
	if r.Shards < 0 || r.Shards > maxRequestFanout {
		return fmt.Errorf("serve: shards must be in [0, %d]", maxRequestFanout)
	}
	if math.IsNaN(r.Quantum) || math.IsInf(r.Quantum, 0) {
		return errors.New("serve: quantum must be finite")
	}
	if r.Quantum < 0 || r.Quantum > 1 {
		return errors.New("serve: quantum must be in [0, 1]")
	}
	if len(r.FaultPlan) > maxFaultPlanLen {
		return fmt.Errorf("serve: fault plan longer than %d bytes", maxFaultPlanLen)
	}
	if strings.ContainsAny(r.FaultPlan, "/\\") || strings.HasSuffix(r.FaultPlan, ".json") {
		// The CLI's ParsePlan treats a path-looking argument as a plan file;
		// the server never reads client-named files.
		return errors.New("serve: fault plan must be the inline kind:rate[:severity] DSL, not a file path")
	}
	plan, err := fault.ParsePlan(r.FaultPlan)
	if err != nil {
		return err
	}
	r.faults = plan
	if r.FaultSeed < 0 {
		return errors.New("serve: fault_seed must be non-negative")
	}
	return r.Environment.Validate()
}

// Validate checks the sweep's base and axes; every expanded run must itself
// validate, which Expand re-checks per combination.
func (s *SweepRequest) Validate() error {
	if len(s.Classes) == 0 && s.Base.Trace.File == "" && s.Base.Trace.Class == "" {
		return errors.New("serve: sweep: base trace or classes axis required")
	}
	n := max(len(s.Classes), 1) * max(len(s.Schemes), 1) * max(len(s.Seeds), 1)
	if n > maxSweepRuns {
		return fmt.Errorf("serve: sweep expands to %d runs, cap is %d", n, maxSweepRuns)
	}
	base := s.Base
	if len(s.Schemes) > 0 && base.Scheme == "" {
		base.Scheme = s.Schemes[0]
	}
	if len(s.Classes) > 0 {
		base.Trace.Class = s.Classes[0]
		base.Trace.File = ""
	}
	return base.Validate()
}

// Expand materializes the sweep's cross-product as validated run requests,
// in classes x schemes x seeds order.
func (s *SweepRequest) Expand() ([]*RunRequest, error) {
	classes := s.Classes
	if len(classes) == 0 {
		classes = []string{s.Base.Trace.Class}
	}
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []string{s.Base.Scheme}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Trace.Seed}
	}
	var out []*RunRequest
	for _, class := range classes {
		for _, scheme := range schemes {
			for _, seed := range seeds {
				req := s.Base
				req.Scheme = scheme
				req.Trace.Seed = seed
				if class != "" {
					req.Trace.Class = class
					req.Trace.File = ""
				}
				if err := req.Validate(); err != nil {
					return nil, err
				}
				r := req
				out = append(out, &r)
			}
		}
	}
	return out, nil
}

// generatorConfig builds the synthetic-generator preset for the spec,
// trimming the canonical horizon when Intervals is set.
func (t TraceSpec) generatorConfig() (trace.GeneratorConfig, error) {
	class, err := parseClass(t.Class)
	if err != nil {
		return trace.GeneratorConfig{}, err
	}
	var cfg trace.GeneratorConfig
	switch class {
	case trace.Drastic:
		cfg = trace.DrasticConfig(t.Servers)
	case trace.Irregular:
		cfg = trace.IrregularConfig(t.Servers)
	default:
		cfg = trace.CommonConfig(t.Servers)
	}
	if t.Intervals > 0 {
		cfg.Horizon = time.Duration(t.Intervals) * cfg.Interval
	}
	return cfg, nil
}

// Open returns a fresh trace source for the request — generator specs stream
// the seeded synthetic process, file refs stream the CSV under traceDir. A
// fresh source per call keeps concurrent executions independent, exactly
// like h2psim's per-run SourceOpener.
func (t TraceSpec) Open(traceDir string) (trace.Source, error) {
	if t.File != "" {
		if traceDir == "" {
			return nil, errors.New("serve: trace file refs are disabled (server has no trace directory)")
		}
		path := filepath.Join(traceDir, filepath.FromSlash(t.File))
		if rel, err := filepath.Rel(traceDir, path); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("serve: trace file ref %q escapes the trace directory", t.File)
		}
		return trace.OpenCSVFile(path)
	}
	cfg, err := t.generatorConfig()
	if err != nil {
		return nil, err
	}
	return trace.NewGeneratorSource(cfg, t.Seed)
}

// Meta resolves the request's trace metadata without running anything — the
// manifest fields and the admission-time size check both come from it. A
// generator spec's shape follows from its configuration alone, so no
// generator is seeded; a file ref is opened and closed.
func (t TraceSpec) Meta(traceDir string) (trace.Meta, error) {
	if t.File == "" {
		cfg, err := t.generatorConfig()
		if err != nil {
			return trace.Meta{}, err
		}
		return cfg.Meta()
	}
	src, err := t.Open(traceDir)
	if err != nil {
		return trace.Meta{}, err
	}
	m := src.Meta()
	if c, ok := src.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return trace.Meta{}, err
		}
	}
	return m, nil
}

// EngineConfig translates the request into the engine configuration h2psim
// builds from the equivalent flags.
func (r *RunRequest) EngineConfig() core.Config {
	cfg := core.DefaultConfig(r.scheme)
	if r.ServersPerCirculation > 0 {
		cfg.ServersPerCirculation = r.ServersPerCirculation
	}
	cfg.Workers = r.Workers
	if r.Shards > 0 {
		cfg.Workers = r.Shards
	}
	cfg.DecisionQuantum = r.Quantum
	cfg.Faults = r.faults
	cfg.FaultSeed = r.faultSeed()
	r.Environment.apply(&cfg)
	return cfg
}

// faultSeed resolves the request's fault seed with the CLI's default of 1.
func (r *RunRequest) faultSeed() int64 {
	if r.FaultSeed == 0 {
		return 1
	}
	return r.FaultSeed
}

// Manifest assembles the run's obs manifest — the same record shape h2psim
// journals, so server-born runs summarize, tail and hash like CLI runs.
// hostEnv is captured once per process by the server.
func (r *RunRequest) Manifest(runID string, meta trace.Meta, hostEnv obs.Environment) obs.Manifest {
	m := obs.Manifest{
		RunID:           runID,
		Trace:           meta.Name,
		Class:           string(meta.Class),
		Servers:         meta.Servers,
		Intervals:       meta.Intervals,
		IntervalSeconds: meta.Interval.Seconds(),
		Config: obs.RunConfig{
			Servers:               meta.Servers,
			ServersPerCirculation: r.EngineConfig().ServersPerCirculation,
			Scheme:                string(r.scheme),
			Workers:               core.ResolveParallelism(r.Workers),
			Shards:                r.Shards,
			DecisionQuantum:       r.Quantum,
			Seed:                  r.Trace.Seed,
			Streaming:             true,
		},
		Env: hostEnv,
	}
	if !r.faults.Empty() {
		m.Config.FaultPlan = r.faults.String()
		m.Config.FaultSeed = r.faultSeed()
	}
	if e := r.Environment; e != nil {
		// Additive-only: a constant block with no reuse or storage writes no
		// fields, so its hash matches the block-free request.
		if e.seasonal() {
			m.Config.EnvKind = "seasonal"
			m.Config.EnvDetail = fmt.Sprintf("seed=%d", e.Seed)
		}
		m.Config.HeatReuse = e.Reuse
		m.Config.StorageWh = e.StorageWh
	}
	m.ConfigHash = m.Hash()
	return m
}

// MarshalResult renders a run result as the canonical API result JSON:
// indented, trailing newline, field order fixed by the core.Result struct.
// Byte equality of two marshalings is exactly float bit equality of the
// results — the property the equivalence suite and h2pload's hash check pin.
func MarshalResult(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// HashBytes is the API's result fingerprint: FNV-64a over the canonical
// result JSON, hex-encoded — the same construction as the manifest's
// ConfigHash, applied to outputs instead of inputs.
func HashBytes(b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}
