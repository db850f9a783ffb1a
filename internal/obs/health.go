package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// ProbeStatus grades one health probe's finding.
type ProbeStatus int

const (
	StatusOK ProbeStatus = iota
	StatusWarn
	StatusCrit
)

// String renders the status for reports and JSON.
func (s ProbeStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusWarn:
		return "warn"
	default:
		return "crit"
	}
}

// MarshalJSON encodes the status as its string form.
func (s ProbeStatus) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes the string form back.
func (s *ProbeStatus) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "ok":
		*s = StatusOK
	case "warn":
		*s = StatusWarn
	case "crit":
		*s = StatusCrit
	default:
		return fmt.Errorf("obs: unknown probe status %s", b)
	}
	return nil
}

// ProbeResult is one probe's evaluated finding.
type ProbeResult struct {
	Name   string      `json:"name"`
	Status ProbeStatus `json:"status"`
	Detail string      `json:"detail,omitempty"`
}

// HealthReport is the aggregate of all probes: the verdict is the
// worst individual status, so a cluster is only "ok" when every
// probe is.
type HealthReport struct {
	Verdict ProbeStatus   `json:"verdict"`
	Probes  []ProbeResult `json:"probes"`
}

// Text renders the report, worst probes first.
func (r HealthReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health: %s\n", r.Verdict)
	for _, p := range r.Probes {
		fmt.Fprintf(&b, "  [%-4s] %-32s %s\n", p.Status, p.Name, p.Detail)
	}
	return b.String()
}

// NewHealthReport rolls probe findings into a report: the verdict is
// the worst status, and the probes are ordered worst first, then by
// name, so the top line is always the most urgent finding.
func NewHealthReport(probes []ProbeResult) HealthReport {
	rep := HealthReport{Probes: probes}
	for _, p := range probes {
		rep.Verdict = max(rep.Verdict, p.Status)
	}
	slices.SortFunc(rep.Probes, func(a, b ProbeResult) int {
		return cmp.Or(cmp.Compare(b.Status, a.Status), cmp.Compare(a.Name, b.Name))
	})
	return rep
}
