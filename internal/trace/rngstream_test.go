package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/units"
)

// rngIntnArgs are the Intn arguments the stream referees draw with: the
// trivial 1, powers of two (the mask branch), small non-powers (rejection
// almost never fires) and 2²⁰+3, which rejects about one draw in 2,000.
var rngIntnArgs = []int{1, 2, 4, 6, 7, 1<<20 + 3}

// rngPaths counts the rare paths a referee run reached.
type rngPaths struct {
	wedge, tail, intnReject, refill int
}

// peekRNG returns the stream's next output without consuming it.
func peekRNG(r *rngStream) uint64 {
	if r.pos == rngLen {
		return r.vec[0] + r.vec[rngLen-rngTap]
	}
	return r.vec[r.pos]
}

// checkRNGOp runs draw op (0: NormFloat64, 1: Float64, 2…: Intn of
// rngIntnArgs[op-2]) on the stream and on the math/rand referee, fails on any
// bit difference, and tallies the rare paths the draw took.
func checkRNGOp(t testing.TB, r *rngStream, ref *rand.Rand, op int, paths *rngPaths) {
	before := r.pos
	var got, want uint64
	switch op {
	case 0:
		j := zigJ(peekRNG(r))
		if i := j & 0x7F; absInt32(j) >= kn[i] {
			if i == 0 {
				paths.tail++
			} else {
				paths.wedge++
			}
		}
		got, want = math.Float64bits(r.normFloat64()), math.Float64bits(ref.NormFloat64())
	case 1:
		got, want = math.Float64bits(r.float64()), math.Float64bits(ref.Float64())
	default:
		n := rngIntnArgs[op-2]
		got, want = uint64(r.intn(n)), uint64(ref.Intn(n))
		used := (r.pos - before + rngLen) % rngLen
		if n&(n-1) != 0 && used > 1 {
			paths.intnReject++
		}
	}
	if r.pos < before {
		paths.refill++
	}
	if got != want {
		t.Fatalf("op %d: stream drew %#x, math/rand %#x", op, got, want)
	}
}

// TestRNGStreamMatchesMathRand is the referee for the block-filled stream:
// a seeded mix of NormFloat64, Float64 and Intn draws, compared bit for bit
// with rand.New(rand.NewSource(seed)), on seeds that include math/rand's
// special cases: seeds are reduced mod 2³¹-1 with negatives shifted up, and
// 0, which 2³¹-1 also reduces to, is replaced by a constant. Every rare path
// must be reached: the ziggurat wedge and tail, an Intn rejection and a ring
// refill.
func TestRNGStreamMatchesMathRand(t *testing.T) {
	draws := 10_000_000
	if raceEnabled {
		draws = 500_000
	}
	for _, seed := range []int64{0, 1, -1, 42, 1<<31 - 1, 1 << 40} {
		r, ref := new(rngStream), rand.New(rand.NewSource(seed))
		r.seed(seed)
		// The op mix comes from its own xorshift, so the referee's stream
		// is consumed only by the draws under test.
		mix := uint64(seed)*0x9E3779B97F4A7C15 | 1
		var paths rngPaths
		for d := 0; d < draws; d++ {
			mix ^= mix << 13
			mix ^= mix >> 7
			mix ^= mix << 17
			checkRNGOp(t, r, ref, int(mix%uint64(2+len(rngIntnArgs))), &paths)
		}
		if paths.wedge == 0 || paths.tail == 0 || paths.intnReject == 0 || paths.refill == 0 {
			t.Errorf("seed %d: rare paths not all reached: %+v", seed, paths)
		}
	}
}

// FuzzRNGStreamMatchesMathRand drives the stream with a fuzzed draw
// sequence: each byte picks a draw (low three bits) and repeats it 1–32
// times (high five bits), so a few dozen bytes cross a refill. Inputs are
// cut at 64 bytes (at most 2,048 draws, three rings) to keep each
// execution, and the minimizer's work, small.
func FuzzRNGStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{0xF8, 0xF9, 0xFF, 0xFE, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8})
	f.Add(int64(1<<31-1), []byte{0x07, 0x0F, 0x17})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r, ref := new(rngStream), rand.New(rand.NewSource(seed))
		r.seed(seed)
		var paths rngPaths
		for _, b := range ops {
			op := int(b&7) % (2 + len(rngIntnArgs))
			for k := 0; k <= int(b>>3); k++ {
				checkRNGOp(t, r, ref, op, &paths)
			}
		}
	})
}

// TestGeneratorSourceNextColumnAllocs pins a warm NextColumn at zero heap
// allocations per column, ring refills and spikes included.
func TestGeneratorSourceNextColumnAllocs(t *testing.T) {
	const runs = 100
	cfg := DrasticConfig(500)
	cfg.SpikeProb = 0.2
	g, err := NewGeneratorSource(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, cfg.Servers)
	if _, err := g.NextColumn(col); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := g.NextColumn(col); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextColumn allocates %v times per column, want 0", allocs)
	}
}

// mathRandColumns is the generator's process written directly on
// *rand.Rand, the way it was before the stream: the referee for
// NextColumn's inlined draws.
func mathRandColumns(cfg GeneratorConfig, seed int64, columns int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Servers
	base, noise, spikeHeight := make([]float64, n), make([]float64, n), make([]float64, n)
	spikeLeft := make([]int, n)
	for s := range base {
		base[s] = units.Clamp(cfg.BaseMean+rng.NormFloat64()*cfg.BaseStd, 0.01, 0.95)
	}
	perDay := float64((24 * time.Hour) / cfg.Interval)
	var swing float64
	out := make([][]float64, columns)
	for i := range out {
		diurnal := cfg.DiurnalAmplitude * math.Sin(2*math.Pi*(float64(i)/perDay-0.25))
		swing += rng.NormFloat64() * cfg.GlobalSwingAmplitude / 4
		swing = units.Clamp(swing, -cfg.GlobalSwingAmplitude, cfg.GlobalSwingAmplitude)
		col := make([]float64, n)
		for s := range col {
			noise[s] = cfg.NoisePhi*noise[s] + rng.NormFloat64()*cfg.NoiseStd
			if spikeLeft[s] > 0 {
				spikeLeft[s]--
			} else if rng.Float64() < cfg.SpikeProb {
				spikeLeft[s] = 1 + rng.Intn(2*cfg.SpikeDurationIntervals)
				spikeHeight[s] = cfg.SpikeMin + rng.Float64()*(cfg.SpikeMax-cfg.SpikeMin)
			}
			u := base[s] + diurnal + swing + noise[s]
			if spikeLeft[s] > 0 {
				u += spikeHeight[s]
			}
			col[s] = units.Clamp(u, 0, 1)
		}
		out[i] = col
	}
	return out
}

// TestGeneratorSourceMatchesMathRand compares NextColumn bit for bit with
// the same process drawn from math/rand, on the presets and on two spike
// settings: frequent spikes, and a spike length whose Intn argument (2²⁰+2)
// is not a power of two.
func TestGeneratorSourceMatchesMathRand(t *testing.T) {
	const servers, columns = 300, 200
	cfgs := CanonicalConfigs(servers)
	frequent := DrasticConfig(servers)
	frequent.Name, frequent.SpikeProb = "frequent", 0.3
	long := CommonConfig(servers)
	long.Name, long.SpikeProb, long.SpikeDurationIntervals = "long", 0.5, 1<<19+1
	cfgs = append(cfgs, frequent, long)
	for _, cfg := range cfgs {
		for _, seed := range []int64{1, 7} {
			g, err := NewGeneratorSource(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			col := make([]float64, servers)
			for c, want := range mathRandColumns(cfg, seed, min(columns, g.Meta().Intervals)) {
				if _, err := g.NextColumn(col); err != nil {
					t.Fatal(err)
				}
				for s := range col {
					if math.Float64bits(col[s]) != math.Float64bits(want[s]) {
						t.Fatalf("%s/%d: column %d server %d: %v, math/rand %v", cfg.Name, seed, c, s, col[s], want[s])
					}
				}
			}
		}
	}
}

// TestGeneratorConfigSpikeLength: a spiking config needs a spike length in
// [1, (2³¹-1)/2], so the length draw 1 + Intn(2·length) is always defined.
func TestGeneratorConfigSpikeLength(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prob    float64
		length  int
		wantErr bool
	}{
		{"zero length, spiking", 0.5, 0, true},
		{"negative length, spiking", 0.5, -3, true},
		{"one interval", 0.5, 1, false},
		{"longest", 0.5, int32max / 2, false},
		{"too long", 0.5, int32max/2 + 1, true},
		{"zero length, no spikes", 0, 0, false},
		{"too long, no spikes", 0, math.MaxInt, false},
	} {
		cfg := DrasticConfig(8)
		cfg.SpikeProb, cfg.SpikeDurationIntervals = tc.prob, tc.length
		_, err := cfg.Meta()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Meta error %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err != nil {
			continue
		}
		g, err := NewGeneratorSource(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		col := make([]float64, cfg.Servers)
		for c := 0; c < 8; c++ {
			if _, err := g.NextColumn(col); err != nil {
				t.Fatalf("%s: column %d: %v", tc.name, c, err)
			}
		}
	}
	for _, cfg := range CanonicalConfigs(8) {
		if _, err := cfg.Meta(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
