package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/h2p-sim/h2p/internal/trace"
)

// fixtureMeta is the sidecar stored next to a cached fixture. A fixture is
// reused only when its key and generator fingerprint match the current
// request and its bytes still hash to the recorded digest; anything else is
// stale and regenerated before any timed region starts.
type fixtureMeta struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	SHA256      string `json:"sha256"`
	Bytes       int64  `json:"bytes"`
}

// ensureFixture returns the path and size of the fixture named key under
// dir, writing it with write when no valid cached copy exists.
func ensureFixture(dir, key, fingerprint string, write func(io.Writer) error) (string, int64, error) {
	path := filepath.Join(dir, key)
	side := path + ".meta.json"
	if b, err := os.ReadFile(side); err == nil {
		var m fixtureMeta
		if json.Unmarshal(b, &m) == nil && m.Key == key && m.Fingerprint == fingerprint {
			if sum, n, err := hashFile(path); err == nil && sum == m.SHA256 && n == m.Bytes {
				return path, n, nil
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	tmp, err := os.CreateTemp(dir, ".fixture-*")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(tmp, h), 1<<20)
	werr := write(bw)
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", 0, fmt.Errorf("fixture %s: %w", key, werr)
	}
	fi, err := os.Stat(tmp.Name())
	if err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, err
	}
	m := fixtureMeta{Key: key, Fingerprint: fingerprint, SHA256: hex.EncodeToString(h.Sum(nil)), Bytes: fi.Size()}
	b, err := json.Marshal(m)
	if err != nil {
		return "", 0, err
	}
	if err := os.WriteFile(side, b, 0o644); err != nil {
		return "", 0, err
	}
	return path, fi.Size(), nil
}

// hashFile returns a file's SHA-256 and size.
func hashFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// csvFingerprint hashes the CSV the generator and writer produce for the
// first interval of (cfg, seed): a change to either changes it, so a CSV
// written by older code is never replayed as this code's.
func csvFingerprint(cfg trace.GeneratorConfig, seed int64) (string, error) {
	cfg.Horizon = cfg.Interval
	tr, err := trace.Generate(cfg, seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := tr.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// csvFixture writes (or reuses) the canonical CSV of the generator trace
// (cfg, seed) and returns its path and size.
func csvFixture(dir string, cfg trace.GeneratorConfig, seed int64) (string, int64, error) {
	fp, err := csvFingerprint(cfg, seed)
	if err != nil {
		return "", 0, err
	}
	intervals := int(cfg.Horizon / cfg.Interval)
	key := fmt.Sprintf("%s-seed%d-%dx%d.csv", cfg.Class, seed, cfg.Servers, intervals)
	// One CSV of each shape is kept: a fixture is ~30 MB at full size.
	prune(dir, fmt.Sprintf("%s-seed*-%dx%d.csv", cfg.Class, cfg.Servers, intervals), key)
	return ensureFixture(dir, key, fp, func(w io.Writer) error {
		tr, err := trace.Generate(cfg, seed)
		if err != nil {
			return err
		}
		return tr.WriteCSV(w)
	})
}

// prune removes the fixtures matching pattern in dir, and their sidecars,
// except keep.
func prune(dir, pattern, keep string) {
	paths, _ := filepath.Glob(filepath.Join(dir, pattern)) // the pattern is well formed
	for _, p := range paths {
		if filepath.Base(p) != keep {
			os.Remove(p)
			os.Remove(p + ".meta.json")
		}
	}
}

// jsonFixture stores v as a JSON fixture, fingerprinted by the hash of its
// freshly generated encoding (so a change to the generating code can never
// serve a stale copy), and decodes the stored bytes into out: the workload
// always runs from the file it recorded.
func jsonFixture(dir, key string, v, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	path, _, err := ensureFixture(dir, key, hex.EncodeToString(sum[:]), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	stored, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(stored, out); err != nil {
		return fmt.Errorf("fixture %s: %w", key, err)
	}
	return nil
}
