package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ParsePlan turns a -fault-plan flag value into a Plan. Three forms are
// accepted:
//
//   - "" returns a nil plan (fault-free).
//   - A path to an existing file is decoded as a JSON Plan — the full
//     vocabulary, including windows, retry policy and staleness bounds.
//   - Anything else is the compact DSL: comma-separated
//     "kind:rate[:severity]" entries, e.g. "teg-degrade:0.1" for the 10 %
//     TEG degradation scenario or "teg-degrade:0.1:0.5,pump-droop:0.05"
//     to stack streams.
//
// The returned plan is validated.
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if st, err := os.Stat(s); err == nil && !st.IsDir() {
		return LoadPlan(s)
	}
	// A value that names a file but doesn't parse as one deserves a file
	// error, not a baffling DSL complaint.
	if strings.ContainsAny(s, "/\\") || strings.HasSuffix(s, ".json") {
		return nil, fmt.Errorf("fault: plan file %q: %w", s, os.ErrNotExist)
	}
	p := &Plan{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: %q: want kind:rate[:severity]", entry)
		}
		spec := Spec{Kind: Kind(strings.TrimSpace(parts[0]))}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: bad rate: %w", entry, err)
		}
		spec.Rate = rate
		if len(parts) == 3 {
			sev, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad severity: %w", entry, err)
			}
			spec.Severity = sev
		}
		p.Specs = append(p.Specs, spec)
	}
	if len(p.Specs) == 0 {
		return nil, fmt.Errorf("fault: %q: no fault specs", s)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadPlan reads a JSON Plan from a file and validates it.
func LoadPlan(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := decodePlan(b)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// decodePlan parses and validates a JSON Plan document. Unknown keys and
// trailing data are rejected: a misspelt key would otherwise run the plan
// with that setting's default.
func decodePlan(b []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the JSON plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan compactly for logs, CLI summaries and the run
// manifest, whose hash must tell plans with different arithmetic apart. A
// DSL plan renders as the DSL that parses back to it. The parts only a JSON
// plan can set follow the same shape: a spec's windows as [from,to)@unit
// joined by '+' in place of its rate, a ":max_stale=N" suffix on the spec,
// and a ";max_attempts=N" suffix on the plan.
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var b strings.Builder
	for i, s := range p.Specs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s", s.Kind)
		if len(s.Windows) > 0 {
			for j, w := range s.Windows {
				sep := byte('+')
				if j == 0 {
					sep = ':'
				}
				fmt.Fprintf(&b, "%c[%d,%d)@%d", sep, w.From, w.To, w.Unit)
			}
		} else {
			fmt.Fprintf(&b, ":%g", s.Rate)
		}
		if s.Severity > 0 {
			fmt.Fprintf(&b, ":%g", s.Severity)
		}
		if s.MaxStale > 0 {
			fmt.Fprintf(&b, ":max_stale=%d", s.MaxStale)
		}
	}
	if p.Retry.MaxAttempts > 0 {
		fmt.Fprintf(&b, ";max_attempts=%d", p.Retry.MaxAttempts)
	}
	return b.String()
}
