package env

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"github.com/h2p-sim/h2p/internal/units"
)

// Profile file limits. A profile is a small operator-authored artifact —
// a year of hourly samples is under 9k entries — so the caps are generous
// for real use and tight enough that a hostile file cannot balloon memory.
const (
	maxProfileBytes   = 8 << 20
	maxProfileSamples = 1 << 20
	minProfileTemp    = -60.0
	maxProfileTemp    = 120.0
)

// profileFile is the JSON schema of an environment profile:
//
//	{
//	  "name": "helsinki-2019",
//	  "repeat": true,
//	  "samples": [
//	    {"wet_bulb_c": 3.5, "cold_side_c": 6.0, "heat_demand": 0.8},
//	    ...
//	  ]
//	}
//
// Samples map to intervals in order. With repeat the sequence wraps; without
// it the last sample holds for the remainder of the run.
type profileFile struct {
	Name    string          `json:"name,omitempty"`
	Repeat  bool            `json:"repeat,omitempty"`
	Samples []profileSample `json:"samples"`
}

type profileSample struct {
	WetBulb    float64 `json:"wet_bulb_c"`
	ColdSide   float64 `json:"cold_side_c"`
	HeatDemand float64 `json:"heat_demand,omitempty"`
}

// Profile is a file-driven environment: an explicit per-interval sample
// sequence, validated once at parse time. It is immutable after ParseProfile
// and therefore safe for concurrent At calls.
type Profile struct {
	name    string
	repeat  bool
	samples []Sample
	fp      string
}

// ParseProfile decodes and validates a JSON environment profile. Unknown
// fields, trailing data, non-finite or out-of-range values and empty sample
// lists are all rejected — the file is operator input, and a silent
// mis-parse would quietly change a run's physics.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) > maxProfileBytes {
		return nil, fmt.Errorf("env: profile of %d bytes exceeds the %d-byte cap", len(data), maxProfileBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pf profileFile
	if err := dec.Decode(&pf); err != nil {
		return nil, fmt.Errorf("env: profile: %w", err)
	}
	if dec.More() {
		return nil, errors.New("env: profile has trailing data after the JSON document")
	}
	if len(pf.Samples) == 0 {
		return nil, errors.New("env: profile has no samples")
	}
	if len(pf.Samples) > maxProfileSamples {
		return nil, fmt.Errorf("env: profile of %d samples exceeds the %d-sample cap", len(pf.Samples), maxProfileSamples)
	}
	p := &Profile{
		name:    pf.Name,
		repeat:  pf.Repeat,
		samples: make([]Sample, len(pf.Samples)),
	}
	for i, s := range pf.Samples {
		if err := validateProfileSample(s); err != nil {
			return nil, fmt.Errorf("env: profile sample %d: %w", i, err)
		}
		p.samples[i] = Sample{
			WetBulb:    units.Celsius(s.WetBulb),
			ColdSide:   units.Celsius(s.ColdSide),
			HeatDemand: s.HeatDemand,
		}
	}
	p.fp = p.fingerprint()
	return p, nil
}

func validateProfileSample(s profileSample) error {
	for _, v := range []float64{s.WetBulb, s.ColdSide} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("temperature must be finite")
		}
		if v < minProfileTemp || v > maxProfileTemp {
			return fmt.Errorf("temperature %g outside [%g, %g] °C", v, minProfileTemp, maxProfileTemp)
		}
	}
	if math.IsNaN(s.HeatDemand) || s.HeatDemand < 0 || s.HeatDemand > 1 {
		return fmt.Errorf("heat_demand %g outside [0, 1]", s.HeatDemand)
	}
	return nil
}

// LoadProfile reads and parses a profile file.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	return ParseProfile(data)
}

// At returns the interval's sample: the sequence wraps under repeat and
// holds its last value otherwise.
func (p *Profile) At(i int) Sample {
	if i < 0 {
		i = 0
	}
	if i >= len(p.samples) {
		if p.repeat {
			i %= len(p.samples)
		} else {
			i = len(p.samples) - 1
		}
	}
	return p.samples[i]
}

// Name reports the source kind.
func (p *Profile) Name() string { return "profile" }

// Fingerprint is content-based: an FNV-64a over every sample's bits plus
// the wrap mode, so two byte-different files with identical climate data
// are interchangeable on resume.
func (p *Profile) Fingerprint() string { return p.fp }

func (p *Profile) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, s := range p.samples {
		put(float64(s.WetBulb))
		put(float64(s.ColdSide))
		put(s.HeatDemand)
	}
	return fmt.Sprintf("profile:%s:repeat=%t,n=%d,h=%016x", p.name, p.repeat, len(p.samples), h.Sum64())
}
