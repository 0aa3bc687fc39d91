package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/h2p-sim/h2p/internal/units"
)

// GeneratorConfig parameterizes the synthetic workload generator. Each of the
// three paper workload classes is a preset of this structure; the presets are
// calibrated so the trace-driven evaluation lands in the published band
// (mean utilization ~0.18-0.27, drastic variance far above common variance).
type GeneratorConfig struct {
	Name     string
	Class    Class
	Servers  int
	Horizon  time.Duration
	Interval time.Duration

	// BaseMean/BaseStd shape the per-server long-run utilization levels.
	BaseMean, BaseStd float64
	// DiurnalAmplitude scales a day-period sinusoid peaking mid-day.
	DiurnalAmplitude float64
	// NoiseStd is the per-interval AR(1) noise scale per server.
	NoiseStd float64
	// NoisePhi is the AR(1) coefficient in [0, 1).
	NoisePhi float64
	// GlobalSwingAmplitude adds a shared random-walk fluctuation across
	// all servers (the violent cluster-wide moves of the Alibaba trace).
	GlobalSwingAmplitude float64
	// SpikeProb is the per-server per-interval probability of entering a
	// load spike.
	SpikeProb float64
	// SpikeMin/SpikeMax bound the spike height added to the base.
	SpikeMin, SpikeMax float64
	// SpikeDurationIntervals is the mean spike length.
	SpikeDurationIntervals int
}

// DrasticConfig mimics the Alibaba cluster trace: 12 hours of drastic,
// frequent fluctuations (Sec. V-C).
func DrasticConfig(servers int) GeneratorConfig {
	return GeneratorConfig{
		Name: "alibaba-drastic", Class: Drastic,
		Servers: servers, Horizon: 12 * time.Hour, Interval: 5 * time.Minute,
		BaseMean: 0.18, BaseStd: 0.11,
		DiurnalAmplitude: 0.05,
		NoiseStd:         0.09, NoisePhi: 0.5,
		GlobalSwingAmplitude: 0.10,
		SpikeProb:            0.015, SpikeMin: 0.30, SpikeMax: 0.55,
		SpikeDurationIntervals: 2,
	}
}

// IrregularConfig mimics the Google trace subset with occasional high peaks.
func IrregularConfig(servers int) GeneratorConfig {
	return GeneratorConfig{
		Name: "google-irregular", Class: Irregular,
		Servers: servers, Horizon: 24 * time.Hour, Interval: 5 * time.Minute,
		BaseMean: 0.19, BaseStd: 0.055,
		DiurnalAmplitude: 0.04,
		NoiseStd:         0.03, NoisePhi: 0.7,
		GlobalSwingAmplitude: 0.02,
		SpikeProb:            0.004, SpikeMin: 0.45, SpikeMax: 0.75,
		SpikeDurationIntervals: 3,
	}
}

// CommonConfig mimics the Google trace subset with very little fluctuation.
func CommonConfig(servers int) GeneratorConfig {
	return GeneratorConfig{
		Name: "google-common", Class: Common,
		Servers: servers, Horizon: 24 * time.Hour, Interval: 5 * time.Minute,
		BaseMean: 0.27, BaseStd: 0.11,
		DiurnalAmplitude: 0.03,
		NoiseStd:         0.015, NoisePhi: 0.8,
		GlobalSwingAmplitude: 0.01,
		SpikeProb:            0.004, SpikeMin: 0.3, SpikeMax: 0.5,
		SpikeDurationIntervals: 2,
	}
}

// GeneratorSource streams a seeded synthetic trace column by column: the
// same AR(1)+diurnal+spike process Generate materializes, produced on the
// fly with an O(servers) working set. Generate is implemented on top of this
// source, so the streamed columns are bit-identical to the dense matrix by
// construction — the RNG consumption order is shared code, not a re-derived
// twin.
//
// Its random numbers are math/rand's: the draws of rand.New(rand.NewSource(seed))
// bit for bit, taken from a block-filled copy of that source's output stream
// (rngstream.go) rather than through the rand.Source interface.
type GeneratorSource struct {
	cfg  GeneratorConfig
	meta Meta
	rng  rngStream

	// Per-server process state: persistent base levels, AR(1) noise, and
	// the remaining length/height of any in-flight load spike.
	base, noise, spikeHeight []float64
	spikeLeft                []int

	// Shared cross-server state.
	swing  float64
	perDay float64
	next   int
}

// Meta validates cfg and reports the shape of the trace it generates: the
// Meta of a GeneratorSource built from it, without seeding a generator.
func (cfg GeneratorConfig) Meta() (Meta, error) {
	if cfg.Servers <= 0 {
		return Meta{}, errors.New("trace: Servers must be positive")
	}
	if cfg.Interval <= 0 || cfg.Horizon < cfg.Interval {
		return Meta{}, errors.New("trace: bad horizon/interval")
	}
	// A spike lasts 1 + Intn(2·SpikeDurationIntervals) intervals, and the
	// stream's intn takes only arguments in [1, 2³¹-1].
	if cfg.SpikeProb > 0 && (cfg.SpikeDurationIntervals < 1 || cfg.SpikeDurationIntervals > int32max/2) {
		return Meta{}, fmt.Errorf("trace: SpikeDurationIntervals %d out of range [1, %d] with SpikeProb > 0",
			cfg.SpikeDurationIntervals, int32max/2)
	}
	return Meta{
		Name:      cfg.Name,
		Class:     cfg.Class,
		Servers:   cfg.Servers,
		Intervals: int(cfg.Horizon / cfg.Interval),
		Interval:  cfg.Interval,
	}, nil
}

// NewGeneratorSource validates cfg and draws the per-server base levels,
// leaving the stream positioned at interval 0.
func NewGeneratorSource(cfg GeneratorConfig, seed int64) (*GeneratorSource, error) {
	meta, err := cfg.Meta()
	if err != nil {
		return nil, err
	}
	g := &GeneratorSource{
		cfg:         cfg,
		meta:        meta,
		base:        make([]float64, cfg.Servers),
		noise:       make([]float64, cfg.Servers),
		spikeHeight: make([]float64, cfg.Servers),
		spikeLeft:   make([]int, cfg.Servers),
		perDay:      float64((24 * time.Hour) / cfg.Interval),
	}
	g.rng.seed(seed)
	// Per-server persistent base levels.
	for s := range g.base {
		g.base[s] = units.Clamp(cfg.BaseMean+g.rng.normFloat64()*cfg.BaseStd, 0.01, 0.95)
	}
	return g, nil
}

// Meta reports the generated trace's shape.
func (g *GeneratorSource) Meta() Meta { return g.meta }

// NextColumn generates the next interval's column into dst. The per-call
// cost is O(servers) with zero allocations in steady state.
//
// The loop keeps the stream's ring and position in locals and draws inline:
// the ziggurat's fast strip (about 97 % of normals) and the spike coin's
// Float64 take one output each. The rare paths — the wedge and tail, the
// Float64 redraw on 1, and a new spike's length and height — go through the
// stream's methods, with the position written back around them.
func (g *GeneratorSource) NextColumn(dst []float64) (int, error) {
	if g.next >= g.meta.Intervals {
		return 0, io.EOF
	}
	if len(dst) != g.cfg.Servers {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), g.cfg.Servers)
	}
	cfg, i, r := g.cfg, g.next, &g.rng
	// Shared diurnal component peaking mid-day.
	diurnal := cfg.DiurnalAmplitude * math.Sin(2*math.Pi*(float64(i)/g.perDay-0.25))
	// Shared bounded random walk.
	swing := g.swing + r.normFloat64()*cfg.GlobalSwingAmplitude/4
	swing = units.Clamp(swing, -cfg.GlobalSwingAmplitude, cfg.GlobalSwingAmplitude)
	g.swing = swing
	// Locals resliced to Servers: the loop neither reloads them through g
	// nor bounds-checks them.
	n := cfg.Servers
	base, noise := g.base[:n], g.noise[:n]
	spikeLeft, spikeHeight := g.spikeLeft[:n], g.spikeHeight[:n]
	dst = dst[:n]
	phi, std, prob := cfg.NoisePhi, cfg.NoiseStd, cfg.SpikeProb
	vec, pos := &r.vec, r.pos
	for s := range dst {
		// NormFloat64.
		if pos == rngLen {
			r.fill()
			pos = 0
		}
		j := zigJ(vec[pos])
		pos++
		k := j & 0x7F
		z := float64(j) * float64(wn[k])
		if absInt32(j) >= kn[k] {
			r.pos = pos
			z = r.normFrom(j)
			pos = r.pos
		}
		noise[s] = phi*noise[s] + z*std
		if spikeLeft[s] > 0 {
			spikeLeft[s]--
		} else {
			// Float64.
			if pos == rngLen {
				r.fill()
				pos = 0
			}
			f := float64(int64(vec[pos]&rngMask)) / (1 << 63)
			pos++
			if f == 1 {
				r.pos = pos
				f = r.float64()
				pos = r.pos
			}
			if f < prob {
				r.pos = pos
				spikeLeft[s] = 1 + r.intn(2*cfg.SpikeDurationIntervals)
				spikeHeight[s] = cfg.SpikeMin + r.float64()*(cfg.SpikeMax-cfg.SpikeMin)
				pos = r.pos
			}
		}
		u := base[s] + diurnal + swing + noise[s]
		if spikeLeft[s] > 0 {
			u += spikeHeight[s]
		}
		dst[s] = units.Clamp(u, 0, 1)
	}
	r.pos = pos
	g.next++
	return i, nil
}

// Generate produces a deterministic synthetic trace for the given seed: the
// materialized form of NewGeneratorSource's stream.
func Generate(cfg GeneratorConfig, seed int64) (*Trace, error) {
	g, err := NewGeneratorSource(cfg, seed)
	if err != nil {
		return nil, err
	}
	return Materialize(g)
}

// CanonicalConfigs returns the paper's three evaluation classes' generator
// configurations in drastic/irregular/common order. GenerateAll materializes
// config i with CanonicalSeed(seed, i); streaming callers pair the two the
// same way to get bit-identical columns without the matrices.
func CanonicalConfigs(servers int) []GeneratorConfig {
	return []GeneratorConfig{
		DrasticConfig(servers),
		IrregularConfig(servers),
		CommonConfig(servers),
	}
}

// CanonicalSeed is the per-class seed schedule GenerateAll uses for
// CanonicalConfigs entry i.
func CanonicalSeed(seed int64, i int) int64 { return seed + int64(i)*1000 }

// GenerateAll returns the paper's three evaluation traces for the given
// server count and seed, in drastic/irregular/common order.
func GenerateAll(servers int, seed int64) ([]*Trace, error) {
	configs := CanonicalConfigs(servers)
	out := make([]*Trace, 0, len(configs))
	for i, cfg := range configs {
		tr, err := Generate(cfg, CanonicalSeed(seed, i))
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
