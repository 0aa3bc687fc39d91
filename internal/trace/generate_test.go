package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"
)

// TestGeneratorSourceGolden pins the generator's output stream itself, not
// just its agreement with Generate (which is built on the same source): the
// SHA-256 of the little-endian float64 bits of the first 288 columns of a
// 64-server trace, per class and seed. Any change to the RNG draw order, the
// process arithmetic or the clamping moves a hash.
func TestGeneratorSourceGolden(t *testing.T) {
	const servers, columns = 64, 288
	want := map[string]string{
		"drastic/1":    "99368dad06dcc9f9fb23d36118cd99d939d434ed4de5f5f3401433f209679531",
		"drastic/42":   "eaffc8038694dfe56527bc1a9381ddcea5f0ee39e9439e6b3b9f0a1c0b5eee3d",
		"irregular/1":  "9ee0b4c020c2d8bac5c094ee85673283041761f0a844126ccf748c5c2802a72f",
		"irregular/42": "4213a9e9f547862708cb6d2841846f690d9f9836199f21f52b1e6cad82bc2ceb",
		"common/1":     "28632aeb119290037407aeaf1e96a33cf3a1e919e89cbefb6bfc930024493b70",
		"common/42":    "0493a96f9a0a0cccd09e99dc7c88efe404d0fa7f5ecc9871510aac9fb15cfd59",
	}
	for _, cfg := range CanonicalConfigs(servers) {
		// The drastic preset spans 12 h (144 columns); stretch every class
		// to a day so each contributes 288.
		cfg.Horizon = 24 * time.Hour
		for _, seed := range []int64{1, 42} {
			g, err := NewGeneratorSource(cfg, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", cfg.Class, seed, err)
			}
			h := sha256.New()
			col := make([]float64, servers)
			buf := make([]byte, 8*servers)
			for c := 0; c < columns; c++ {
				if _, err := g.NextColumn(col); err != nil {
					t.Fatalf("%s/%d column %d: %v", cfg.Class, seed, c, err)
				}
				for s, v := range col {
					binary.LittleEndian.PutUint64(buf[8*s:], math.Float64bits(v))
				}
				h.Write(buf)
			}
			key := fmt.Sprintf("%s/%d", cfg.Class, seed)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// BenchmarkGeneratorSource times NextColumn per generated sample on a
// 12,500-server column, the month workload's fleet size, for the calmest and
// the most spike-heavy class.
func BenchmarkGeneratorSource(b *testing.B) {
	const servers = 12500
	for _, cfg := range []GeneratorConfig{CommonConfig(servers), DrasticConfig(servers)} {
		b.Run(string(cfg.Class), func(b *testing.B) {
			cfg.Horizon = time.Duration(b.N) * cfg.Interval
			g, err := NewGeneratorSource(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			col := make([]float64, servers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.NextColumn(col); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/servers, "ns/sample")
		})
	}
}
