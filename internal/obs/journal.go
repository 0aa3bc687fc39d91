package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/h2p-sim/h2p/internal/core"
)

// JournalVersion is the run-journal schema version. The versioning rule
// (documented in DESIGN.md): a reader accepts any journal whose manifest
// records carry v <= its own JournalVersion, skipping record types it does
// not know — adding record types or optional fields is therefore NOT a
// version bump; only a change that alters the meaning of an existing field
// is. Records without a v field inherit the journal's manifest version.
const JournalVersion = 1

// Record is one journal line: a small envelope (type, run key, wall-clock
// stamp) around exactly one typed payload. Payloads the reader does not
// recognize are preserved as raw type strings so old tools can count — but
// not interpret — records from newer writers.
type Record struct {
	// V is the schema version, stamped on manifest records only.
	V int `json:"v,omitempty"`
	// Type discriminates the payload: "manifest", "progress", "event",
	// "done".
	Type string `json:"type"`
	// Run keys the record to one run (<run-id>/<trace>/<scheme>); every
	// record of a journal hosting concurrent runs carries it.
	Run string `json:"run"`
	// TimeMS is the wall-clock Unix-millisecond stamp of the record.
	TimeMS int64 `json:"t_ms"`

	Manifest *Manifest `json:"manifest,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Event    *Event    `json:"event,omitempty"`
	Done     *Done     `json:"done,omitempty"`
}

// RunConfig is the manifest's run-shaping knobs — everything that picks the
// simulation's arithmetic, and therefore everything ConfigHash covers.
type RunConfig struct {
	Servers               int     `json:"servers"`
	ServersPerCirculation int     `json:"servers_per_circulation"`
	Scheme                string  `json:"scheme"`
	Workers               int     `json:"workers"`
	Shards                int     `json:"shards,omitempty"`
	DecisionQuantum       float64 `json:"decision_quantum,omitempty"`
	Seed                  int64   `json:"seed"`
	FaultPlan             string  `json:"fault_plan,omitempty"`
	FaultSeed             int64   `json:"fault_seed,omitempty"`
	Streaming             bool    `json:"streaming,omitempty"`
	// Facility environment (all omitempty: the constant default leaves the
	// canonical JSON — and so the config hash — byte-identical to a journal
	// predating the environment layer). EnvKind names the source
	// ("seasonal", "profile"); EnvDetail carries its seed or fingerprint.
	EnvKind   string  `json:"env_kind,omitempty"`
	EnvDetail string  `json:"env_detail,omitempty"`
	HeatReuse bool    `json:"heat_reuse,omitempty"`
	StorageWh float64 `json:"storage_wh,omitempty"`
}

// Manifest is a run's provenance record, written once at run start (and
// again on every resume — the journal's append-only discipline means the
// last manifest for a run key is the current one).
type Manifest struct {
	// RunID is the operator-chosen (or timestamp-derived) id shared by all
	// runs of one CLI invocation.
	RunID string `json:"run_id"`
	// Trace/Class/Servers/Intervals/IntervalSeconds mirror trace.Meta.
	Trace           string  `json:"trace"`
	Class           string  `json:"class,omitempty"`
	Servers         int     `json:"servers"`
	Intervals       int     `json:"intervals"`
	IntervalSeconds float64 `json:"interval_seconds"`
	// Config carries the run-shaping knobs; ConfigHash is the FNV-64a of
	// their canonical JSON, a quick "same run?" comparator across journals.
	Config     RunConfig   `json:"config"`
	ConfigHash string      `json:"config_hash,omitempty"`
	Env        Environment `json:"env"`
}

// Hash computes the manifest's ConfigHash: FNV-64a over the canonical JSON
// of Config plus the trace identity fields.
func (m Manifest) Hash() string {
	type hashed struct {
		Trace     string    `json:"trace"`
		Servers   int       `json:"servers"`
		Intervals int       `json:"intervals"`
		Config    RunConfig `json:"config"`
	}
	b, err := json.Marshal(hashed{m.Trace, m.Servers, m.Intervals, m.Config})
	if err != nil {
		return ""
	}
	// FNV-64a, inlined to keep the hash definition in one screenful.
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// Progress is a periodic run-progress record: position, rates and ETA, the
// running harvested-power mean over the intervals this writer observed, the
// decision hit rate, and — for sharded runs — the pipeline timing
// counters.
type Progress struct {
	// Interval is the last merged interval index; Done = Interval+1
	// intervals are complete out of Total.
	Interval int `json:"interval"`
	Done     int `json:"done"`
	Total    int `json:"total"`
	// WallMS is the wall time since this writer started (or resumed) the
	// run; IntervalsPerSec and EtaMS derive from it.
	WallMS          int64   `json:"wall_ms"`
	IntervalsPerSec float64 `json:"intervals_per_sec"`
	EtaMS           int64   `json:"eta_ms"`
	// AvgTEGWattsPerServer is the running mean of the per-interval harvested
	// power over the intervals observed since start/resume (the headline
	// series; a resumed writer's mean covers its own tail only).
	AvgTEGWattsPerServer float64 `json:"avg_teg_w_per_server"`
	// CacheHitRate is the run's decision hits/calls so far — the share of
	// decisions whose plane an earlier circulation of the same shard column
	// resolved (sched.Controller.CacheStats): the counts of the run's own
	// controller, whether or not a telemetry
	// registry aggregates it with other runs. -1 when no stats source is
	// attached.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// DegradedIntervals counts circulation-intervals this writer saw
	// excluded by fault degradation; zero in a healthy run.
	DegradedIntervals int64 `json:"degraded_intervals,omitempty"`
	// Shard carries the run pipeline's timing counters (nil when the run
	// loop attached none): merge-wait totals and per-shard step seconds.
	Shard *ShardProgress `json:"shard,omitempty"`
}

// ShardProgress is the sharded pipeline's cumulative timing counters inside
// a Progress record: the run loop's ShardStats read, journaled as is.
type ShardProgress = core.ShardStats

// Event kinds written by the recorder.
const (
	EventCheckpoint = "checkpoint"
	EventResume     = "resume"
	EventHalt       = "halt"
	EventDegraded   = "degraded"
	EventNote       = "note"
)

// Event is a run lifecycle event.
type Event struct {
	// Kind is one of the Event* constants (readers must tolerate others).
	Kind string `json:"kind"`
	// Interval anchors the event on the run's timeline (the completed
	// interval count at checkpoints/halts, the interval index elsewhere).
	Interval int `json:"interval"`
	// Detail is free-form human-readable context.
	Detail string `json:"detail,omitempty"`
}

// Done is a run's closing record: the headline results.
type Done struct {
	Intervals             int     `json:"intervals"`
	AvgTEGWattsPerServer  float64 `json:"avg_teg_w_per_server"`
	PeakTEGWattsPerServer float64 `json:"peak_teg_w_per_server"`
	PRE                   float64 `json:"pre"`
	TEGEnergyKWh          float64 `json:"teg_energy_kwh"`
	WallMS                int64   `json:"wall_ms"`
	// Faults is the run's fault summary; nil for a fault-free run.
	Faults *core.FaultSummary `json:"faults,omitempty"`
}

// ReadJournal parses a JSONL run journal. Blank lines are skipped; a
// malformed line or a manifest from a newer schema version is an error —
// except an unterminated final line that does not parse, which is the torn
// tail of a write a crash interrupted and is dropped. The records come back
// in file order — append order, which for a journal hosting concurrent runs
// interleaves runs. A line longer than 4 MiB is an error.
func ReadJournal(r io.Reader) ([]Record, error) {
	return readJournal(r, maxJournalLine)
}

// maxJournalLine bounds one journal line, so a corrupt file without newlines
// cannot make the reader buffer it whole. Real records are a few hundred
// bytes.
const maxJournalLine = 1 << 22

// readJournal is ReadJournal with the line bound as a parameter, so the
// fuzzer can reach the oversized-line path with small inputs.
func readJournal(r io.Reader, maxLine int) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	// unterminated is set when the scanner hands out a final line that no
	// newline ended.
	unterminated := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		unterminated = atEOF && len(data) > 0 && bytes.IndexByte(data, '\n') < 0
		return bufio.ScanLines(data, atEOF)
	})
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			if unterminated {
				break
			}
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		if rec.Type == "" {
			return nil, fmt.Errorf("obs: journal line %d: missing record type", line)
		}
		if rec.V > JournalVersion {
			return nil, fmt.Errorf("obs: journal line %d speaks schema v%d, this reader speaks v%d",
				line, rec.V, JournalVersion)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("obs: journal line %d is longer than %d bytes", line+1, maxLine)
		}
		return nil, err
	}
	return out, nil
}

// RunSummary condenses one run's journal records: its (latest) manifest,
// last progress, lifecycle counts and closing record — what `h2pstat
// summary` prints and the live /runs endpoint serves.
type RunSummary struct {
	Run      string    `json:"run"`
	Manifest *Manifest `json:"manifest,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Done     *Done     `json:"done,omitempty"`

	Checkpoints int `json:"checkpoints"`
	Resumes     int `json:"resumes"`
	Halts       int `json:"halts"`
	// HaltedAt is the last halt event's position: the intervals the run
	// had completed when it halted. Meaningful when Halts > 0.
	HaltedAt int `json:"halted_at,omitempty"`
	Degraded int `json:"degraded_events"`
	Records  int `json:"records"`

	// FirstMS/LastMS bound the run's records in wall-clock time.
	FirstMS int64 `json:"first_ms"`
	LastMS  int64 `json:"last_ms"`
}

// Summarize folds journal records into per-run summaries, ordered by first
// appearance in the journal.
func Summarize(records []Record) []*RunSummary {
	byRun := make(map[string]*RunSummary)
	var order []string
	for i := range records {
		rec := &records[i]
		s := byRun[rec.Run]
		if s == nil {
			s = &RunSummary{Run: rec.Run, FirstMS: rec.TimeMS}
			byRun[rec.Run] = s
			order = append(order, rec.Run)
		}
		fold(s, rec)
	}
	out := make([]*RunSummary, 0, len(order))
	for _, run := range order {
		out = append(out, byRun[run])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}
