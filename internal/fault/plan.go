package fault

import (
	"encoding/json"
	"fmt"
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

// decodePlan parses and validates a JSON Plan document.
func decodePlan(b []byte) (*Plan, error) {
	p := &Plan{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan compactly for logs and CLI summaries.
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
			fmt.Fprintf(&b, ":%d windows", len(s.Windows))
		} else {
			fmt.Fprintf(&b, ":%g", s.Rate)
		}
		if s.Severity > 0 {
			fmt.Fprintf(&b, ":%g", s.Severity)
		}
	}
	return b.String()
}
