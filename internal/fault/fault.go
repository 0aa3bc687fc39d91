// Package fault is the engine's deterministic fault-injection layer: the
// operating faults that separate nameplate harvest from realized harvest in
// a deployed H2P plant — TEG module degradation and open-circuit failures
// (the calibrated device of Eqs. 3-8 drifting off its fit), pump flow-rate
// droop, stuck coolant-temperature sensors, and transient circulation-step
// errors that must be retried.
//
// The layer is built around three ideas:
//
//   - A Plan is pure data: a list of fault Specs (rate- or window-driven)
//     plus a retry policy. Plans parse from a compact command-line DSL
//     ("teg-degrade:0.1") or a JSON file, so scenario sweeps are one flag
//     away.
//   - An Injector is a compiled Plan bound to a seed. Activation is a pure
//     function of (seed, kind, unit, interval[, attempt]) through a
//     splitmix64 hash — no shared RNG state, so a parallel engine asking
//     "is circulation 7 faulted at interval 12?" gets the same answer for
//     any worker count and any evaluation order.
//   - A nil Injector is the fault-free plant: every query costs one nil
//     check and returns "healthy", and simulation results are bit-identical
//     to an engine with no fault layer at all.
package fault

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/h2p-sim/h2p/internal/teg"
)

// Kind names one class of injected fault.
type Kind string

// The supported fault kinds. TEG faults are per-server (one module per
// server outlet) and persistent — a degraded module does not heal within a
// run. Plant faults are per-circulation and transient — they come and go
// interval by interval.
const (
	// TEGDegrade scales a module's Seebeck coefficient down and its
	// internal resistance up (Spec.Severity), shrinking output per Eq. 5.
	TEGDegrade Kind = "teg-degrade"
	// TEGOpen is a full open-circuit module failure: the server's harvest
	// is excluded from the sum (not zeroed into a mean — see core's merge).
	TEGOpen Kind = "teg-open"
	// PumpDroop derates a circulation pump's realized flow to
	// (1 - Severity) of the commanded flow for the faulted interval.
	PumpDroop Kind = "pump-droop"
	// SensorStuck freezes a circulation's outlet-temperature sensor; the
	// consumer falls back to the last good reading with bounded staleness.
	SensorStuck Kind = "sensor-stuck"
	// StepError injects a transient circulation-step failure, exercising
	// the engine's capped-exponential-backoff retry path. Each retry
	// attempt re-rolls independently.
	StepError Kind = "step-error"
)

// ErrInjected is the error surfaced by an injected StepError attempt.
var ErrInjected = errors.New("fault: injected circulation error")

// kinds lists every valid Kind with its per-kind defaults.
var kindDefaults = map[Kind]struct {
	severity   float64
	persistent bool
}{
	TEGDegrade:  {severity: 0.3, persistent: true},
	TEGOpen:     {severity: 1, persistent: true},
	PumpDroop:   {severity: 0.3, persistent: false},
	SensorStuck: {severity: 0, persistent: false},
	StepError:   {severity: 0, persistent: false},
}

// Window pins a fault to an explicit interval range (trace-based
// scheduling), as opposed to the rate-based coin flips.
type Window struct {
	// From (inclusive) and To (exclusive) bound the active intervals.
	From int `json:"from"`
	To   int `json:"to"`
	// Unit restricts the window to one unit (server for TEG faults,
	// circulation otherwise); -1 applies it to every unit.
	Unit int `json:"unit"`
}

// contains reports whether the window covers (interval, unit).
func (w Window) contains(interval, unit int) bool {
	return interval >= w.From && interval < w.To && (w.Unit < 0 || w.Unit == unit)
}

// Spec describes one fault stream.
type Spec struct {
	Kind Kind `json:"kind"`
	// Rate drives rate-based activation. For persistent kinds (TEG faults)
	// it is the population fraction affected for the whole run; for
	// transient kinds it is the per-unit per-interval activation
	// probability (per attempt for step-error). Ignored when Windows is
	// non-empty.
	Rate float64 `json:"rate,omitempty"`
	// Severity is kind-specific: the degradation depth for teg-degrade
	// (scaled through teg.Degradation semantics: Seebeck x(1-s),
	// resistance x(1+s)), the fractional flow loss for pump-droop. 0 picks
	// the kind's default; teg-open, sensor-stuck and step-error ignore it.
	Severity float64 `json:"severity,omitempty"`
	// Windows switches the spec to trace-based scheduling: the fault is
	// active exactly inside the windows, and Rate is ignored.
	Windows []Window `json:"windows,omitempty"`
	// MaxStale bounds sensor-stuck staleness: how many consecutive
	// intervals a last-good reading may be served before the consumer must
	// mark itself degraded and fall back to the live value. 0 picks
	// DefaultMaxStale. Other kinds ignore it.
	MaxStale int `json:"max_stale,omitempty"`
}

// DefaultMaxStale is the bounded staleness of sensor-stuck fallbacks when a
// spec does not override it.
const DefaultMaxStale = 3

// Validate reports spec errors.
func (s Spec) Validate() error {
	if _, ok := kindDefaults[s.Kind]; !ok {
		return fmt.Errorf("fault: unknown kind %q", s.Kind)
	}
	if s.Rate < 0 || s.Rate > 1 || math.IsNaN(s.Rate) {
		return fmt.Errorf("fault: %s: rate %v outside [0,1]", s.Kind, s.Rate)
	}
	if s.Severity < 0 || s.Severity > 1 || math.IsNaN(s.Severity) {
		return fmt.Errorf("fault: %s: severity %v outside [0,1]", s.Kind, s.Severity)
	}
	if s.MaxStale < 0 {
		return fmt.Errorf("fault: %s: max_stale must be non-negative", s.Kind)
	}
	if len(s.Windows) == 0 && s.Rate == 0 {
		return fmt.Errorf("fault: %s: needs a rate or at least one window", s.Kind)
	}
	for i, w := range s.Windows {
		if w.To <= w.From {
			return fmt.Errorf("fault: %s: window %d is empty (from %d, to %d)", s.Kind, i, w.From, w.To)
		}
		if w.Unit < -1 {
			return fmt.Errorf("fault: %s: window %d has unit %d (< -1)", s.Kind, i, w.Unit)
		}
	}
	return nil
}

// severity resolves the spec's effective severity.
func (s Spec) severity() float64 {
	if s.Severity > 0 {
		return s.Severity
	}
	return kindDefaults[s.Kind].severity
}

// RetryPolicy bounds the engine's recovery from circulation-step errors:
// capped exponential backoff between attempts, then the interval is marked
// degraded for that circulation.
type RetryPolicy struct {
	// MaxAttempts is the total number of step attempts (first try
	// included). Values below 1 mean DefaultRetryPolicy's count.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it. 0 retries immediately (the simulation default — the
	// plant's timebase is simulated, so wall-clock sleeps are opt-in).
	BaseDelay time.Duration `json:"base_delay,omitempty"`
	// MaxDelay caps the exponential growth. 0 means no cap.
	MaxDelay time.Duration `json:"max_delay,omitempty"`
}

// DefaultRetryPolicy is three attempts with immediate (zero-delay) retries.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 3} }

// Attempts resolves the effective attempt count (at least 1).
func (r RetryPolicy) Attempts() int {
	if r.MaxAttempts < 1 {
		return DefaultRetryPolicy().MaxAttempts
	}
	return r.MaxAttempts
}

// Delay returns the backoff before retry attempt `retry` (0-based: the
// delay between the first failure and the second attempt is Delay(0)).
// Growth is exponential — BaseDelay << retry — and capped at MaxDelay.
func (r RetryPolicy) Delay(retry int) time.Duration {
	if r.BaseDelay <= 0 || retry < 0 {
		return 0
	}
	d := r.BaseDelay
	for i := 0; i < retry; i++ {
		d *= 2
		if r.MaxDelay > 0 && d >= r.MaxDelay {
			return r.MaxDelay
		}
	}
	if r.MaxDelay > 0 && d > r.MaxDelay {
		return r.MaxDelay
	}
	return d
}

// Plan is a complete fault scenario: the fault streams to inject and the
// retry policy for step errors. The zero value (and a nil *Plan) is the
// fault-free plant.
type Plan struct {
	Specs []Spec      `json:"specs"`
	Retry RetryPolicy `json:"retry,omitempty"`
}

// Validate reports plan errors. A nil plan is valid (fault-free).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i := range p.Specs {
		if err := p.Specs[i].Validate(); err != nil {
			return fmt.Errorf("fault: spec %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Specs) == 0 }

// compiledSpec is one spec with its derived constants resolved.
type compiledSpec struct {
	spec Spec
	// key is the first hash round, mix(seed ^ stream), resolved once per
	// compile: the stream id makes identical specs differ, and every
	// activation query continues the hash from here.
	key        uint64
	factor     float64 // TEGDegrade: output factor; PumpDroop: flow factor
	persistent bool    // the kind's default, resolved once off the hot path
}

// active reports whether the spec fires for (interval, unit) under the
// injector's seed. attempt only matters for StepError.
func (cs *compiledSpec) active(interval, unit, attempt int) bool {
	if len(cs.spec.Windows) > 0 {
		for _, w := range cs.spec.Windows {
			if w.contains(interval, unit) {
				return true
			}
		}
		return false
	}
	if cs.persistent {
		// Persistent rate-based faults affect a fixed population fraction
		// for the whole run: the unit's draw is interval-independent.
		return u01(cs.key, uint64(unit), 0, 0) < cs.spec.Rate
	}
	return u01(cs.key, uint64(unit), uint64(interval)+1, uint64(attempt)+1) < cs.spec.Rate
}

// Injector is a compiled Plan bound to a seed: a stateless oracle the
// engine queries on its hot path. All methods are pure functions of their
// arguments, safe for any number of concurrent goroutines, and nil-receiver
// safe — a nil *Injector reports a fully healthy plant.
//
// The purity is load-bearing for checkpoint/resume: because an activation
// depends only on (seed, stream, unit, interval[, attempt]) — never on query
// order or on which intervals were asked about before — a resumed run that
// re-compiles the plan and queries only the remaining suffix of intervals
// sees exactly the faults the uninterrupted run would have, so checkpoints
// carry no injector state.
type Injector struct {
	retry    RetryPolicy
	maxStale int

	tegDegrade  []compiledSpec
	tegOpen     []compiledSpec
	pumpDroop   []compiledSpec
	sensorStuck []compiledSpec
	stepError   []compiledSpec
}

// Compile binds the plan to a seed. A nil or empty plan compiles to a nil
// injector — the canonical fault-free fast path.
func (p *Plan) Compile(seed int64) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	in := &Injector{retry: p.Retry}
	mixedSeed := mix(uint64(seed))
	explicitStale := 0
	for i, s := range p.Specs {
		stream := mix(uint64(i) + 0x5eed)
		cs := compiledSpec{spec: s, key: mix(mixedSeed ^ stream), persistent: kindDefaults[s.Kind].persistent}
		switch s.Kind {
		case TEGDegrade:
			deg, err := teg.NewDegradation(s.severity())
			if err != nil {
				return nil, err
			}
			cs.factor = deg.OutputFactor()
			in.tegDegrade = append(in.tegDegrade, cs)
		case TEGOpen:
			in.tegOpen = append(in.tegOpen, cs)
		case PumpDroop:
			cs.factor = 1 - s.severity()
			in.pumpDroop = append(in.pumpDroop, cs)
		case SensorStuck:
			if s.MaxStale > explicitStale {
				explicitStale = s.MaxStale
			}
			in.sensorStuck = append(in.sensorStuck, cs)
		case StepError:
			in.stepError = append(in.stepError, cs)
		}
	}
	in.maxStale = DefaultMaxStale
	if explicitStale > 0 {
		in.maxStale = explicitStale
	}
	return in, nil
}

// Retry returns the plan's retry policy (defaults applied).
func (in *Injector) Retry() RetryPolicy {
	if in == nil {
		return DefaultRetryPolicy()
	}
	return in.retry
}

// MaxSensorStale returns the bounded staleness for stuck-sensor fallbacks.
func (in *Injector) MaxSensorStale() int {
	if in == nil {
		return DefaultMaxStale
	}
	return in.maxStale
}

// TEGFactor returns the multiplicative output factor of the server's TEG
// module at the interval: 1 for a healthy module, the product of every
// active degradation's factor otherwise.
func (in *Injector) TEGFactor(interval, server int) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for i := range in.tegDegrade {
		if in.tegDegrade[i].active(interval, server, 0) {
			f *= in.tegDegrade[i].factor
		}
	}
	return f
}

// TEGOpen reports whether the server's module is open-circuit at the
// interval (excluded from the harvest sum entirely).
func (in *Injector) TEGOpen(interval, server int) bool {
	if in == nil {
		return false
	}
	for i := range in.tegOpen {
		if in.tegOpen[i].active(interval, server, 0) {
			return true
		}
	}
	return false
}

// TEGTableOpen is a TEGTable entry's value for an open-circuit module.
const TEGTableOpen = -1.0

// TEGTable returns the TEG state of servers [lo, hi) for the whole run: entry
// i is TEGTableOpen when server lo+i's module is open-circuit, else its
// TEGFactor. A rate-based TEG fault is persistent, so when every TEG spec is
// rate-based the state cannot change between intervals and one table
// replaces the per-interval queries. The table is nil when a TEG spec is
// windowed, and for the nil injector: query TEGOpen and TEGFactor then. It
// is derived from the injector alone, so it needs no checkpointing.
func (in *Injector) TEGTable(lo, hi int) []float64 {
	if in == nil {
		return nil
	}
	for _, specs := range [...][]compiledSpec{in.tegDegrade, in.tegOpen} {
		for i := range specs {
			if len(specs[i].spec.Windows) > 0 {
				return nil
			}
		}
	}
	table := make([]float64, hi-lo)
	for i := range table {
		if in.TEGOpen(0, lo+i) {
			table[i] = TEGTableOpen
		} else {
			table[i] = in.TEGFactor(0, lo+i)
		}
	}
	return table
}

// FlowFactor returns the circulation pump's realized-over-commanded flow
// ratio at the interval: 1 when healthy, the product of active droops
// otherwise (never below 0).
func (in *Injector) FlowFactor(interval, circ int) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for i := range in.pumpDroop {
		if in.pumpDroop[i].active(interval, circ, 0) {
			f *= in.pumpDroop[i].factor
		}
	}
	if f < 0 {
		f = 0
	}
	return f
}

// SensorStuck reports whether the circulation's outlet-temperature sensor
// is stuck at the interval.
func (in *Injector) SensorStuck(interval, circ int) bool {
	if in == nil {
		return false
	}
	for i := range in.sensorStuck {
		if in.sensorStuck[i].active(interval, circ, 0) {
			return true
		}
	}
	return false
}

// StepError reports whether the circulation's step attempt fails at the
// interval. Each attempt re-rolls independently, so retries can recover.
func (in *Injector) StepError(interval, circ, attempt int) bool {
	if in == nil {
		return false
	}
	for i := range in.stepError {
		if in.stepError[i].active(interval, circ, attempt) {
			return true
		}
	}
	return false
}

// mix is the splitmix64 finalizer: a fast, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps the hash of the activation coordinates to a uniform [0, 1). key
// is the spec's compiled first round, mix(seed ^ stream).
func u01(key, unit, interval, attempt uint64) float64 {
	h := mix(key + unit*0x9e3779b97f4a7c15)
	h = mix(h + interval*0xbf58476d1ce4e5b9)
	if attempt != 0 {
		h = mix(h + attempt*0x94d049bb133111eb)
	}
	return float64(h>>11) / float64(1<<53)
}
